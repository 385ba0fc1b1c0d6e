"""Generating capacity, background load, and per-slot charging headroom.

The grid has a fixed generating capacity. Loads other than vehicles
follow a daily shape; whatever is left over in a slot is available for
charging and determines K, the number of vehicles that can be switched
on simultaneously. Capacity is calibrated so that the daily energy
available for vehicles divided by the daily energy they require equals a
target supply-to-demand ratio.

A vehicle's charger is one of four named presets: `home-110-15` (the
default, rounded to 0.5 miles per slot), `home-110-15-exact` (the
unrounded 1.65 kW, about 0.491 miles per slot), `home-110-13` (the same
circuit limited to 13 A continuous) and `dryer-220-30`.
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


_CHARGERS = {
    "home-110-15": ChargerSpec(volts=110.0, amps=15.0, miles_per_slot=0.5),
    "home-110-15-exact": ChargerSpec.from_electrical(110.0, 15.0),
    "home-110-13": ChargerSpec.from_electrical(110.0, 13.0),
    "dryer-220-30": ChargerSpec.from_electrical(220.0, 30.0),
}
CHARGER_PRESETS = tuple(_CHARGERS)


def charger_preset(name: str) -> ChargerSpec:
    """The charger a preset name stands for."""
    try:
        return _CHARGERS[name]
    except KeyError:
        raise ValueError(
            f"unknown charger preset {name!r} (choose from {', '.join(CHARGER_PRESETS)})") from None


@dataclass(frozen=True)
class GridModel:
    """Calibrated grid: capacity sized so daily TPA / TPR = sdr_target."""

    capacity_kw: float
    tpa_kwh: float
    tpr_kwh: float
    # kW left for vehicles in each slot of the day: capacity minus the
    # other loads, never below 0.
    available_kw: tuple[float, ...] = field(repr=False)


# make_grid holds TPA / TPR to the target ratio within 1e-6. A double
# carries about 16 significant digits, so past about 1e9 rounding alone
# can break that check; ratios above 1e6 are refused, three digits short
# of it.
MAX_SUPPLY_RATIO = 1e6


def check_supply_ratio(sdr: float) -> None:
    """Refuse a supply-to-demand ratio outside [1, MAX_SUPPLY_RATIO]."""
    if sdr < 1.0:
        raise ValueError("supply-to-demand ratio below 1 is refused: delays would grow indefinitely")
    if sdr > MAX_SUPPLY_RATIO:
        raise ValueError(
            f"supply-to-demand ratio {sdr:g} is refused: calibration holds the ratio to 1e-6 "
            f"only up to {MAX_SUPPLY_RATIO:.0f}")


def check_peak_other_fraction(peak_other_fraction: float) -> None:
    """Refuse a peak share of other loads outside (0, 1)."""
    if not 0.0 < peak_other_fraction < 1.0:
        raise ValueError(f"peak_other_fraction must be in (0, 1), not {peak_other_fraction:g}")


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
    check_supply_ratio(sdr_target)
    if tpr_kwh <= 0.0:
        raise ValueError("daily requirement must be positive")
    check_peak_other_fraction(peak_other_fraction)
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


def slot_vehicle_capacity(grid: GridModel, charger: ChargerSpec, slot: int) -> int:
    """K: whole chargers the leftover power can run; remainder is discarded."""
    # 1e-9 guards exact multiples against one-ulp rounding in the divide.
    return int(math.floor(grid.available_kw[slot % SLOTS_PER_DAY] / charger.kw + 1e-9))


def day_capacity_profile(grid: GridModel, charger: ChargerSpec) -> list[int]:
    """K for each of the 288 slots of a day (capacity is day-periodic)."""
    return [slot_vehicle_capacity(grid, charger, s) for s in range(SLOTS_PER_DAY)]
