"""Synthetic fleet of home-charging sessions, deterministic per seed.

Each vehicle is one session: it arrives by a time-of-day Poisson
process, stays plugged for a truncated-Normal number of hours, must
leave with enough range for a truncated-Exponential round-trip commute
plus fixed allowances, and starts with a Uniform initial charge. When
the sampled stay is too short to finish charging even if charged every
slot, the expected departure is pushed out to the earliest feasible
boundary.

A fleet is one `Fleet`: a column per attribute, a row per vehicle in
arrival order, and the charging-interval counts for its charger. The
per-vehicle draws are scalar, in a fixed order; everything derived from
them is computed on whole columns, and every check on a session is
made once, by the `Fleet` constructor. Sessions built by hand enter as
`Vehicle` records through `Fleet.from_vehicles`. `tests/test_golden.py`
pins two generated fleets' `fleet.csv`, so a change to the draws shows
apart from any change downstream.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .policies import _LATE, departure_keys, intervals_for_deficit, joining_tiers
from .powergrid import ChargerSpec
from .units import KWH_PER_MILE, SLOTS_PER_DAY, SLOTS_PER_HOUR, hours_to_slots


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
            "duration_std_h", "one_way_commute_mean_mi", "commute_cap_mi", "extra_daily_mi",
            "emergency_mi", "initial_charge_max_mi", "battery_capacity_miles",
        ):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be non-negative")
        # draw_sessions redraws until a round trip fits under the
        # cap: with a positive mean only an exact 0 fits a cap of 0.
        if self.commute_cap_mi == 0.0 and self.one_way_commute_mean_mi > 0.0:
            raise ValueError("commute_cap_mi must be positive while one_way_commute_mean_mi is")
        if self.days < 1:
            raise ValueError("need at least one simulated day")
        # Every drawn requirement is a round trip of 0 or more plus both
        # allowances, so these alone already decide whether any fits.
        if self.extra_daily_mi + self.emergency_mi > self.battery_capacity_miles:
            raise ValueError(
                f"extra_daily_mi + emergency_mi ({self.extra_daily_mi:g} + {self.emergency_mi:g}) "
                f"exceeds battery_capacity_miles ({self.battery_capacity_miles:g}): no requirement would fit")
        if not (self.one_way_commute_mean_mi or self.extra_daily_mi or self.emergency_mi):
            raise ValueError("one_way_commute_mean_mi, extra_daily_mi and emergency_mi are all 0: "
                             "no vehicle would need charge")


@dataclass(slots=True)
class Vehicle:
    """One charging session built by hand; current_miles is the charge on arrival.

    A record only: it enters a run through `Fleet.from_vehicles`, which
    checks it like every other session.
    """

    id: int
    arrival_slot: int
    expected_departure_slot: int
    required_miles: float
    current_miles: float
    battery_capacity_miles: float
    connected_slots: int = 0  # sampled stay; departure may exceed it


class Fleet:
    """Charging sessions as columns, rows in arrival order (arrival slot, then id).

    id, arrival_slot, expected_departure_slot and connected_slots (the
    sampled stay) are int64 columns; required_miles, initial_miles (the
    charge on arrival) and battery_capacity_miles are float64. need and
    room count, at the charger's rate, the charging intervals until a
    vehicle holds its required charge and until its battery is full. A
    run copies them and works on the copies, so a fleet never changes.
    The columns are rows of two blocks, one per dtype: a fleet is two
    allocations, sorted and freed whole.

    Without expected departures, each one is the arrival plus the stay,
    pushed out where the stay is too short to charge the requirement
    even in every slot. Without ids, rows are numbered in the order
    given. Rows are reordered into arrival order if needed; ids must be
    unique, and every session is checked against its battery's bounds.

    The fleet also carries what every run over it starts from, whatever
    the policy, built once from the rows in arrival order: arrivals and
    departures, the arrival and expected departure slots as lists (the
    engine reads them vehicle by vehicle); departure_order, the ranks
    sorted stably by expected departure, and departure_boundaries, their
    expected departure slots, both as lists; last_departure and
    total_need, which bound a run; joins, each rank's joining tier
    (`policies.joining_tiers`); and departure_keys, the packed priority
    key of each expected departure (`policies.departure_keys`).
    """

    __slots__ = (
        "id", "arrival_slot", "connected_slots", "expected_departure_slot", "need", "room",
        "required_miles", "initial_miles", "battery_capacity_miles",
        "arrivals", "departures", "departure_order", "departure_boundaries", "last_departure",
        "total_need", "joins", "departure_keys",
    )

    def __init__(self, charger: ChargerSpec, arrival_slot, connected_slots, required_miles,
                 initial_miles, battery_capacity_miles, *, expected_departure_slot=None, ids=None):
        n = len(arrival_slot)
        counts = np.empty((6, n), dtype=np.int64)  # the int64 columns, in __slots__ order
        counts[0] = np.arange(n) if ids is None else ids
        counts[1] = arrival_slot
        counts[2] = connected_slots
        if expected_departure_slot is not None:
            counts[3] = expected_departure_slot
        miles = np.empty((3, n))
        miles[0] = required_miles
        miles[1] = initial_miles
        miles[2] = battery_capacity_miles
        ids, arrival = counts[0], counts[1]
        # Rows in arrival order with increasing ids need no sorting, and
        # their ids are unique.
        if n > 1 and not (_every(ids[1:] > ids[:-1]) and _every(arrival[1:] >= arrival[:-1])):
            if len(set(ids.tolist())) < n:
                raise ValueError("vehicle ids must be unique")
            order = np.lexsort((ids, arrival))
            counts, miles = counts[:, order], miles[:, order]
        ids, arrival, stay, departure, need, room = counts
        required, initial, capacity = miles

        over = required > capacity
        if np.count_nonzero(over):
            i = over.argmax()
            raise ValueError(
                f"required range {required[i]:.1f} exceeds battery capacity "
                f"{capacity[i]:.1f}; check commute cap and allowances")
        if not (_every(initial >= 0.0) and _every(initial <= capacity)):
            raise ValueError("current charge outside battery bounds")
        if not _every(required >= 0.0):
            raise ValueError("required charge outside battery bounds")
        counts[4:] = intervals_for_deficit(miles[::2], initial, charger.miles_per_slot)
        if expected_departure_slot is None:
            np.add(arrival, np.maximum(stay, need), out=departure)
        if not _every(departure > arrival):
            raise ValueError("departure must come after arrival")
        if n and counts[3:].max() >= _LATE:
            raise ValueError("charging intervals or departure slots beyond the priority-key range")
        (self.id, self.arrival_slot, self.connected_slots, self.expected_departure_slot,
         self.need, self.room) = counts
        self.required_miles, self.initial_miles, self.battery_capacity_miles = miles
        self.arrivals = arrival.tolist()
        self.departures = departure.tolist()
        order = departure.argsort(kind="stable")
        self.departure_order, self.departure_boundaries = order.tolist(), departure[order].tolist()
        self.last_departure = int(departure.max()) if n else 0
        self.total_need = int(need.sum())
        self.joins = joining_tiers(self)
        self.departure_keys = departure_keys(self)

    @classmethod
    def from_vehicles(cls, vehicles: Sequence[Vehicle], charger: ChargerSpec) -> "Fleet":
        """The fleet of hand-built sessions, in any order, for `charger`."""
        return cls(
            charger,
            [v.arrival_slot for v in vehicles],
            [v.connected_slots for v in vehicles],
            [v.required_miles for v in vehicles],
            [v.current_miles for v in vehicles],
            [v.battery_capacity_miles for v in vehicles],
            expected_departure_slot=[v.expected_departure_slot for v in vehicles],
            ids=[v.id for v in vehicles],
        )

    def __len__(self) -> int:
        return len(self.id)


def _every(mask: np.ndarray) -> bool:
    """Whether every entry of a boolean array is true (count_nonzero is the cheap reduction)."""
    return np.count_nonzero(mask) == len(mask)


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


def draw_sessions(cfg: WorkloadConfig, rng: np.random.Generator,
                  count: int) -> tuple[list[float], list[float], list[float]]:
    """Stay hours, required miles and initial charge of `count` vehicles, in three lists.

    Each vehicle draws in turn: its stay, Normal(mean, std) hours
    redrawn until within bounds; then its requirement, a round-trip
    commute of twice an Exponential(mean) one-way trip, redrawn until
    within the cap, plus the daily and emergency allowances; then its
    initial charge, Uniform from 0 to the max. Standard variates are
    scaled as numpy's rng.normal, rng.exponential and rng.uniform scale
    them (loc + scale * z, scale * e, low + (high - low) * u), so the
    draws are those methods' doubles from the same stream, without
    their per-call argument handling.
    """
    normal, exponential, uniform = rng.standard_normal, rng.standard_exponential, rng.random
    mean, std, low, high = cfg.duration_mean_h, cfg.duration_std_h, cfg.duration_min_h, cfg.duration_max_h
    commute, cap = cfg.one_way_commute_mean_mi, cfg.commute_cap_mi
    extra, emergency, top = cfg.extra_daily_mi, cfg.emergency_mi, cfg.initial_charge_max_mi
    hours, required, initial = [], [], []
    add_hours, add_required, add_initial = hours.append, required.append, initial.append
    for _ in range(count):
        stay = mean + std * normal()
        while not low <= stay <= high:
            stay = mean + std * normal()
        add_hours(stay)
        round_trip = 2.0 * (commute * exponential())
        while not round_trip <= cap:
            round_trip = 2.0 * (commute * exponential())
        add_required(round_trip + extra + emergency)
        # numpy's low + (high - low) * u with low = 0: the product is
        # never -0.0, so adding 0.0 would change nothing.
        add_initial(top * uniform())
    return hours, required, initial


def generate_fleet(
    cfg: WorkloadConfig,
    profile: ArrivalProfile,
    charger: ChargerSpec,
    seed: int,
) -> Fleet:
    """Deterministic fleet for (cfg, profile, charger, seed).

    The seed is a cell coordinate, not part of the workload config.
    Arrivals and per-vehicle attributes come from separate substreams of
    the seed; the attributes are drawn by `draw_sessions` in arrival
    order, so sampled values depend only on a vehicle's place in the
    arrival sequence and never on its id. Stays are rounded to whole
    slots as one column.
    """
    arrival_ss, attrs_ss = np.random.SeedSequence(seed).spawn(2)
    arrivals = sample_arrivals(profile, cfg.days, np.random.default_rng(arrival_ss))
    hours, required, initial = draw_sessions(cfg, np.random.default_rng(attrs_ss), len(arrivals))
    return Fleet(charger, arrivals, hours_to_slots(hours), required, initial, cfg.battery_capacity_miles)


def adjusted_departure_fraction(fleet: Fleet) -> float:
    """Fraction of vehicles whose expected departure had to be pushed out."""
    if not len(fleet):
        raise ValueError("empty workload")
    pushed = fleet.expected_departure_slot - fleet.arrival_slot > fleet.connected_slots
    return np.count_nonzero(pushed) / len(fleet)


def total_required_energy(fleet: Fleet, days: int) -> float:
    """Average daily kWh the fleet must draw to reach its required charge.

    The per-vehicle deficits are summed exactly (math.fsum), so the
    total does not depend on the order of the vehicles.
    """
    if not len(fleet):
        raise ValueError("empty workload")
    if days < 1:
        raise ValueError("fleet must span at least one day")
    deficits = np.maximum(fleet.required_miles - fleet.initial_miles, 0.0)
    return math.fsum(deficits.tolist()) * KWH_PER_MILE / days


def dump_fleet_csv(fleet: Fleet, path) -> None:
    """Write the generated fleet for inspection or independent recomputation."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "arrival_slot", "departure_slot", "required_miles", "initial_miles"])
        writer.writerows(
            (vid, arrival, departure, f"{required:.10g}", f"{initial:.10g}")
            for vid, arrival, departure, required, initial in zip(
                fleet.id.tolist(), fleet.arrival_slot.tolist(), fleet.expected_departure_slot.tolist(),
                fleet.required_miles.tolist(), fleet.initial_miles.tolist())
        )
