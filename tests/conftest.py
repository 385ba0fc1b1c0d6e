import math
from dataclasses import dataclass

import pytest

from gridshare.cli import build_config
from gridshare.powergrid import SLOT_HOURS, ChargerSpec, LoadShape, charger_preset
from gridshare.workload import Vehicle


def scenario(**overrides):
    """The CLI's experiment: its default table with key=value overrides."""
    return build_config({key: str(value) for key, value in overrides.items()})


@dataclass(slots=True)
class VehicleOutcome:
    """One row of an `engine.Outcomes` table, for reading a run vehicle by vehicle."""

    id: int
    arrival_slot: int
    expected_departure_slot: int
    satisfied_slot: int
    actual_departure_slot: int
    delay_slots: int
    delayed: bool
    measured: bool


def realized_sdr(grid) -> float:
    """The supply ratio a calibrated grid delivers: TPA re-integrated from
    its per-slot available power, divided by TPR."""
    return SLOT_HOURS * math.fsum(grid.available_kw) / grid.tpr_kwh


def records(outcomes) -> list[VehicleOutcome]:
    """One record per row of an `engine.Outcomes` table, in its row order."""
    return [VehicleOutcome(*row) for row in zip(*(column.tolist() for column in outcomes.columns()))]


def make_test_vehicle(vid, arrival, departure, required, current=0.0, capacity=None):
    """Hand-built session for policy/engine tests (1 mile = 1 slot at unit rate)."""
    return Vehicle(
        id=vid,
        arrival_slot=arrival,
        expected_departure_slot=departure,
        required_miles=float(required),
        current_miles=float(current),
        battery_capacity_miles=float(capacity if capacity is not None else max(required, current)),
        connected_slots=departure - arrival,
    )


@pytest.fixture
def unit_charger():
    """One mile of range per slot: interval counts equal miles."""
    return ChargerSpec(volts=120.0, amps=28.0, miles_per_slot=1.0)


@pytest.fixture
def home_charger():
    return charger_preset("home-110-15")


@pytest.fixture
def flat_shape():
    return LoadShape.from_values([1.0] * 288)
