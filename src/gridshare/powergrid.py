"""Generating capacity, background load, and per-slot charging headroom.

The grid has a fixed generating capacity. Loads other than vehicles
follow a daily shape; whatever is left over in a slot is available for
charging and determines K, the number of vehicles that can be switched
on simultaneously. Capacity is calibrated so that the daily energy
available for vehicles divided by the daily energy they require equals a
target supply-to-demand ratio.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

from .units import KWH_PER_MILE, SLOTS_PER_DAY, SLOTS_PER_HOUR

SLOT_HOURS = 1.0 / SLOTS_PER_HOUR


@dataclass(frozen=True)
class LoadShape:
    """Normalized non-vehicle load over one day, one value per slot."""

    values: tuple[float, ...]

    def __post_init__(self):
        if len(self.values) != SLOTS_PER_DAY:
            raise ValueError(f"load shape needs {SLOTS_PER_DAY} values, got {len(self.values)}")
        if any(v < 0.0 or v > 1.0 + 1e-9 for v in self.values):
            raise ValueError("load shape values must lie in [0, 1]")
        if abs(max(self.values) - 1.0) > 1e-9:
            raise ValueError("load shape must be normalized to peak 1")

    @classmethod
    def from_values(cls, values: Iterable[float]) -> "LoadShape":
        return cls(tuple(float(v) for v in values))


@dataclass(frozen=True)
class ChargerSpec:
    """A per-vehicle charging circuit.

    `miles_per_slot` is the range added in one 5-minute interval; `kw` is
    derived from it so battery-side and grid-side energy agree exactly.
    For the exact-physics presets `kw` equals volts*amps/1000; the
    rounded household preset delivers 0.5 miles per slot (6 miles/hour,
    so an empty 100-mile battery takes 200 intervals) and draws the
    correspondingly rounded power.
    """

    volts: float
    amps: float
    miles_per_slot: float
    kwh_per_mile: float = KWH_PER_MILE

    def __post_init__(self):
        if self.miles_per_slot <= 0.0:
            raise ValueError("charger must deliver positive charge per slot")

    @property
    def kw(self) -> float:
        return self.miles_per_slot * SLOTS_PER_HOUR * self.kwh_per_mile

    @classmethod
    def from_electrical(cls, volts: float, amps: float) -> "ChargerSpec":
        rate = (volts * amps / 1000.0) / SLOTS_PER_HOUR / KWH_PER_MILE
        return cls(volts=volts, amps=amps, miles_per_slot=rate)


CHARGER_PRESETS = ("home-110-15", "dryer-220-30")


def charger_preset(name: str, *, derate_13a: bool = False, exact_physics: bool = False) -> ChargerSpec:
    """Build a charger by preset name.

    home-110-15 defaults to the rounded 0.5 miles/slot rate; pass
    exact_physics for the 1.65 kW value (~0.491 miles/slot) or
    derate_13a for continuous-current-limited 13 A operation.
    """
    if name == "home-110-15":
        if derate_13a:
            return ChargerSpec.from_electrical(110.0, 13.0)
        if exact_physics:
            return ChargerSpec.from_electrical(110.0, 15.0)
        return ChargerSpec(volts=110.0, amps=15.0, miles_per_slot=0.5)
    if name == "dryer-220-30":
        return ChargerSpec.from_electrical(220.0, 30.0)
    raise ValueError(f"unknown charger preset {name!r} (choose from {', '.join(CHARGER_PRESETS)})")


@dataclass(frozen=True)
class GridModel:
    """Calibrated grid: capacity sized so daily TPA / TPR = sdr_target."""

    capacity_kw: float
    tpa_kwh: float
    tpr_kwh: float
    # kW left for vehicles in each slot of the day: capacity minus the
    # other loads, never below 0.
    available_kw: tuple[float, ...] = field(repr=False)


def _headroom_hours(shape: LoadShape, peak_other_fraction: float) -> float:
    """Integral over a day of (1 - peak_other_fraction * shape), in hours."""
    return SLOT_HOURS * math.fsum(1.0 - peak_other_fraction * v for v in shape.values)


def calibrate_capacity(
    shape: LoadShape, peak_other_fraction: float, tpr_kwh: float, sdr_target: float
) -> float:
    """Generating capacity (kW) that makes daily TPA equal sdr_target * TPR.

    TPA is linear in capacity: TPA(c) = c * integral(1 - p*shape), so the
    closed form is exact.
    """
    if sdr_target < 1.0:
        raise ValueError("supply-to-demand ratio below 1 is refused: delays would grow indefinitely")
    if tpr_kwh <= 0.0:
        raise ValueError("daily requirement must be positive")
    if not 0.0 < peak_other_fraction < 1.0:
        raise ValueError("peak_other_fraction must be in (0, 1)")
    headroom = _headroom_hours(shape, peak_other_fraction)
    if headroom <= 0.0:
        raise ValueError("profile leaves no headroom")
    return sdr_target * tpr_kwh / headroom


def make_grid(
    shape: LoadShape,
    tpr_kwh: float,
    sdr_target: float,
    peak_other_fraction: float,
) -> GridModel:
    """Calibrate capacity and assemble an immutable grid model."""
    capacity = calibrate_capacity(shape, peak_other_fraction, tpr_kwh, sdr_target)
    tpa = capacity * _headroom_hours(shape, peak_other_fraction)
    grid = GridModel(
        capacity_kw=capacity,
        tpa_kwh=tpa,
        tpr_kwh=tpr_kwh,
        available_kw=tuple(
            max(capacity - peak_other_fraction * capacity * v, 0.0) for v in shape.values
        ),
    )
    if abs(grid.tpa_kwh / grid.tpr_kwh - sdr_target) > 1e-6:
        raise AssertionError("calibration round-trip failed")
    return grid


def realized_sdr(grid: GridModel) -> float:
    """Re-integrate TPA from the per-slot available power and divide by TPR."""
    return SLOT_HOURS * math.fsum(grid.available_kw) / grid.tpr_kwh


def slot_vehicle_capacity(grid: GridModel, charger: ChargerSpec, slot: int) -> int:
    """K: whole chargers the leftover power can run; remainder is discarded."""
    # 1e-9 guards exact multiples against one-ulp rounding in the divide.
    return int(math.floor(grid.available_kw[slot % SLOTS_PER_DAY] / charger.kw + 1e-9))


def day_capacity_profile(grid: GridModel, charger: ChargerSpec) -> list[int]:
    """K for each of the 288 slots of a day (capacity is day-periodic)."""
    return [slot_vehicle_capacity(grid, charger, s) for s in range(SLOTS_PER_DAY)]
