"""Synthetic fleet of home-charging sessions, deterministic per seed.

Each vehicle is one session: it arrives by a time-of-day Poisson
process, stays plugged for a truncated-Normal number of hours, must
leave with enough range for a truncated-Exponential round-trip commute
plus fixed allowances, and starts with a Uniform initial charge. When
the sampled stay is too short to finish charging even if charged every
slot, the expected departure is pushed out to the earliest feasible
boundary.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .policies import intervals_for_deficit
from .powergrid import ChargerSpec
from .units import SLOTS_PER_DAY, SLOTS_PER_HOUR, hours_to_slots


@dataclass(frozen=True)
class ArrivalProfile:
    """Hourly arrival weights (already shifted to arrival time of day)."""

    hourly_weights: tuple[float, ...]
    expected_daily_arrivals: float

    def __post_init__(self):
        if len(self.hourly_weights) != 24:
            raise ValueError("arrival profile needs 24 hourly weights")
        if any(w < 0.0 for w in self.hourly_weights):
            raise ValueError("arrival weights must be non-negative")
        if abs(math.fsum(self.hourly_weights) - 1.0) > 1e-9:
            raise ValueError("arrival weights must sum to 1")
        if self.expected_daily_arrivals < 0.0:
            raise ValueError("expected_daily_arrivals must be non-negative")

    def slot_rate(self, slot: int) -> float:
        """Poisson mean for one 5-minute slot."""
        hour = (slot // SLOTS_PER_HOUR) % 24
        return self.expected_daily_arrivals * self.hourly_weights[hour] / SLOTS_PER_HOUR


def arrival_profile_from_weights(
    weights: Sequence[float], expected_daily_arrivals: float
) -> ArrivalProfile:
    """Build a profile from raw weights, normalizing their sum to 1."""
    total = math.fsum(weights)
    if total <= 0.0:
        raise ValueError("arrival weights must have positive sum")
    return ArrivalProfile(
        hourly_weights=tuple(w / total for w in weights),
        expected_daily_arrivals=expected_daily_arrivals,
    )


@dataclass(frozen=True)
class WorkloadConfig:
    days: int
    duration_mean_h: float
    duration_std_h: float
    duration_min_h: float
    duration_max_h: float
    one_way_commute_mean_mi: float
    commute_cap_mi: float
    extra_daily_mi: float
    emergency_mi: float
    initial_charge_max_mi: float
    battery_capacity_miles: float

    def __post_init__(self):
        if not self.duration_min_h < self.duration_mean_h < self.duration_max_h:
            raise ValueError("duration bounds must bracket the mean")
        for name in (
            "one_way_commute_mean_mi", "commute_cap_mi", "extra_daily_mi",
            "emergency_mi", "initial_charge_max_mi", "battery_capacity_miles",
        ):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be non-negative")
        if self.days < 1:
            raise ValueError("need at least one simulated day")


@dataclass(slots=True)
class Vehicle:
    """One charging session; current_miles is the charge on arrival.

    The engine reads vehicles and never changes them: it tracks charge
    as whole intervals in its own per-run counters.
    """

    id: int
    arrival_slot: int
    expected_departure_slot: int
    required_miles: float
    current_miles: float
    battery_capacity_miles: float
    connected_slots: int = 0  # sampled stay; departure may exceed it

    def __post_init__(self):
        if not 0.0 <= self.current_miles <= self.battery_capacity_miles:
            raise ValueError("current charge outside battery bounds")
        if not 0.0 <= self.required_miles <= self.battery_capacity_miles:
            raise ValueError("required charge outside battery bounds")
        if self.expected_departure_slot <= self.arrival_slot:
            raise ValueError("departure must come after arrival")


def sample_arrivals(profile: ArrivalProfile, days: int, rng: np.random.Generator) -> list[int]:
    """Arrival slot indices over the horizon, sorted ascending.

    Slot counts are Poisson with the profile's per-slot rate; the daily
    pattern repeats every day.
    """
    if days < 1:
        raise ValueError("days must be at least 1")
    rates = np.array([profile.slot_rate(s) for s in range(SLOTS_PER_DAY)])
    counts = rng.poisson(np.tile(rates, days))
    return np.repeat(np.arange(days * SLOTS_PER_DAY), counts).tolist()


# The samplers draw standard variates and scale them as numpy's
# rng.normal, rng.exponential and rng.uniform do (loc + scale * z,
# scale * e, low + (high - low) * u), so they return the same doubles
# from the same stream while skipping those methods' per-call argument
# handling.
def sample_connection_duration(cfg: WorkloadConfig, rng: np.random.Generator) -> int:
    """Stay length in slots: Normal(mean, std) hours, resampled into bounds."""
    while True:
        hours = cfg.duration_mean_h + cfg.duration_std_h * rng.standard_normal()
        if cfg.duration_min_h <= hours <= cfg.duration_max_h:
            return hours_to_slots(hours)


def sample_required_miles(cfg: WorkloadConfig, rng: np.random.Generator) -> float:
    """Required range at departure: capped round-trip commute plus allowances."""
    while True:
        round_trip = 2.0 * (cfg.one_way_commute_mean_mi * rng.standard_exponential())
        if round_trip <= cfg.commute_cap_mi:
            return round_trip + cfg.extra_daily_mi + cfg.emergency_mi


def sample_initial_charge(cfg: WorkloadConfig, rng: np.random.Generator) -> float:
    """Charge already in the battery on arrival, uniform from 0 to the max."""
    return 0.0 + cfg.initial_charge_max_mi * rng.random()


def make_vehicle(
    vehicle_id: int,
    arrival_slot: int,
    duration_slots: int,
    required_miles: float,
    initial_miles: float,
    charger: ChargerSpec,
    battery_capacity_miles: float,
) -> Vehicle:
    """Assemble a session, pushing out infeasible expected departures.

    If the stay is shorter than the minimum time to charge continuously,
    the expected departure moves to the earliest boundary at which the
    vehicle could be fully ready.
    """
    if required_miles > battery_capacity_miles:
        raise ValueError(
            f"required range {required_miles:.1f} exceeds battery capacity "
            f"{battery_capacity_miles:.1f}; check commute cap and allowances"
        )
    min_slots = intervals_for_deficit(required_miles, initial_miles, charger.miles_per_slot)
    return Vehicle(
        vehicle_id, arrival_slot, arrival_slot + max(duration_slots, min_slots),
        required_miles, initial_miles, battery_capacity_miles, duration_slots,
    )


def generate_fleet(
    cfg: WorkloadConfig,
    profile: ArrivalProfile,
    charger: ChargerSpec,
    seed: int,
) -> list[Vehicle]:
    """Deterministic fleet for (cfg, profile, charger, seed).

    Arrivals and per-vehicle attributes come from separate substreams of
    the seed, consumed in arrival order, so sampled values depend only on
    a vehicle's place in the arrival sequence and never on its id.
    """
    arrival_ss, attrs_ss = np.random.SeedSequence(seed).spawn(2)
    arrivals = sample_arrivals(profile, cfg.days, np.random.default_rng(arrival_ss))
    rng = np.random.default_rng(attrs_ss)
    # Arguments are evaluated left to right, so each vehicle draws its
    # stay, then its requirement, then its initial charge.
    return [
        make_vehicle(
            i, slot, sample_connection_duration(cfg, rng), sample_required_miles(cfg, rng),
            sample_initial_charge(cfg, rng), charger, cfg.battery_capacity_miles,
        )
        for i, slot in enumerate(arrivals)
    ]


def adjusted_departure_fraction(fleet: Sequence[Vehicle]) -> float:
    """Fraction of vehicles whose expected departure had to be pushed out."""
    if not fleet:
        raise ValueError("empty workload")
    adjusted = sum(
        1 for v in fleet
        if v.expected_departure_slot - v.arrival_slot > v.connected_slots
    )
    return adjusted / len(fleet)


def dump_fleet_csv(fleet: Sequence[Vehicle], path) -> None:
    """Write the generated fleet for inspection or independent recomputation."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "arrival_slot", "departure_slot", "required_miles", "initial_miles"])
        for v in fleet:
            writer.writerow([
                v.id, v.arrival_slot, v.expected_departure_slot,
                f"{v.required_miles:.10g}", f"{v.current_miles:.10g}",
            ])
