"""The 5-minute slot loop: plug in, select, charge, depart, record.

Each slot: arrivals plug in, list membership takes in the slot's
events (arrivals, the previous slot's charges and departures), the grid
yields K charger slots, the policy picks that many vehicles, each
selected vehicle gains one interval of charge, and vehicles that have
reached both their expected departure boundary and their required
charge leave. The loop runs past the arrival horizon until every
vehicle has departed, reusing the day-periodic capacity profile.
"""

from __future__ import annotations

import csv
from collections import defaultdict
from dataclasses import dataclass, field, replace
from typing import Sequence

from .policies import (
    Policy,
    charge_intervals_required,
    new_policy_state,
    select,
    update_membership,
)
from .powergrid import ChargerSpec, GridModel, day_capacity_profile
from .units import SLOTS_PER_DAY, SLOTS_PER_HOUR
from .workload import Vehicle

# Slot of day at which the plugged-vehicle census is sampled (4 a.m.,
# the nightly trough, a stable point for drift detection).
CENSUS_SLOT_OF_DAY = 4 * SLOTS_PER_HOUR


@dataclass(frozen=True)
class SimConfig:
    policy: Policy
    sdr_target: float
    seed: int
    days: int = 15
    warmup_days: int = 4
    last_measured_day: int = 13

    def __post_init__(self):
        if not self.warmup_days < self.last_measured_day < self.days:
            raise ValueError("need warmup_days < last_measured_day < days")

    def in_measurement_window(self, arrival_slot: int) -> bool:
        day = arrival_slot // SLOTS_PER_DAY  # zero-based
        return self.warmup_days <= day < self.last_measured_day


@dataclass(frozen=True)
class VehicleOutcome:
    id: int
    arrival_slot: int
    expected_departure_slot: int
    satisfied_slot: int
    actual_departure_slot: int
    delay_slots: int
    delayed: bool
    measured: bool


@dataclass
class RunStats:
    """Cheap diagnostics accumulated during a run."""

    slots_run: int = 0
    total_selections: int = 0
    plugged_at_census: list = field(default_factory=list)


class SimulationInvariantError(RuntimeError):
    """An internal conservation or ordering rule was violated."""


def run_simulation(
    cfg: SimConfig,
    fleet: Sequence[Vehicle],
    grid: GridModel | None,
    charger: ChargerSpec,
    *,
    k_profile: Sequence[int] | None = None,
    trace_path=None,
    check_invariants: bool = True,
    stats: RunStats | None = None,
) -> list[VehicleOutcome]:
    """Simulate one policy over the whole fleet; one outcome per vehicle.

    The input fleet is not mutated. k_profile overrides the grid-derived
    per-slot capacity (used by the verification tools); it is cycled, so
    post-horizon slots see the same daily pattern.
    """
    if cfg.sdr_target < 1.0:
        raise ValueError(
            f"supply-to-demand ratio {cfg.sdr_target} is below 1: "
            "delays will grow indefinitely"
        )
    if k_profile is None:
        if grid is None:
            raise ValueError("need either a calibrated grid or an explicit k_profile")
        k_profile = day_capacity_profile(grid, charger)
    cycle = len(k_profile)

    vehicles = sorted((replace(v) for v in fleet), key=lambda v: (v.arrival_slot, v.id))
    if len({v.id for v in vehicles}) != len(vehicles):
        raise ValueError("vehicle ids must be unique")
    for v in vehicles:
        v.measured = cfg.in_measurement_window(v.arrival_slot)

    trace_file = open(trace_path, "w", newline="", encoding="utf-8") if trace_path else None
    try:
        return _run_loop(
            cfg, vehicles, charger, k_profile, cycle,
            csv.writer(trace_file) if trace_file else None,
            check_invariants, stats, state=new_policy_state(cfg.policy, charger, vehicles),
        )
    finally:
        if trace_file:
            trace_file.close()


def _run_loop(cfg, vehicles, charger, k_profile, cycle, trace, check_invariants, stats, state):
    rate = charger.miles_per_slot
    active: dict[int, Vehicle] = {}       # all plugged
    charged: list[int] = []               # ids charged in the previous slot
    left: list[int] = []                  # ids departed at the last boundary
    departure_bucket = defaultdict(list)  # boundary slot -> ids due to leave
    satisfied_slot: dict[int, int] = {}
    charged_count: dict[int, int] = defaultdict(int)
    initial_miles: dict[int, float] = {}
    outcomes: dict[int, VehicleOutcome] = {}
    if trace:
        trace.writerow([
            "slot", "k", "vehicle_id", "tier", "arrival_slot",
            "expected_departure_slot", "intervals_needed",
            "delay_if_continuous", "selected",
        ])

    def depart(v: Vehicle, boundary: int) -> None:
        sat = satisfied_slot[v.id]
        actual = max(v.expected_departure_slot, sat)
        if check_invariants:
            if boundary != actual:
                raise SimulationInvariantError(f"vehicle {v.id} departing at {boundary}, not {actual}")
            if v.current_miles < v.required_miles - 1e-9:
                raise SimulationInvariantError(f"vehicle {v.id} departing short of required charge")
            gained = v.current_miles - initial_miles[v.id]
            expected_gain = rate * charged_count[v.id]
            shortfall = expected_gain - gained
            at_cap = v.current_miles >= v.battery_capacity_miles - 1e-9
            if not (abs(shortfall) < 1e-9 or (at_cap and -1e-9 < shortfall < rate + 1e-9)):
                raise SimulationInvariantError(f"vehicle {v.id} gained {gained}, charged {charged_count[v.id]} slots")
        outcomes[v.id] = VehicleOutcome(
            id=v.id,
            arrival_slot=v.arrival_slot,
            expected_departure_slot=v.expected_departure_slot,
            satisfied_slot=sat,
            actual_departure_slot=actual,
            delay_slots=actual - v.expected_departure_slot,
            delayed=actual > v.expected_departure_slot,
            measured=v.measured,
        )
        del active[v.id]
        left.append(v.id)

    max_slots = (cfg.days + 60) * SLOTS_PER_DAY
    next_arrival = 0
    n = len(vehicles)
    t = 0
    while next_arrival < n or active:
        if t >= max_slots:
            raise RuntimeError(f"simulation did not drain within {max_slots} slots")

        first_arrival = next_arrival
        while next_arrival < n and vehicles[next_arrival].arrival_slot == t:
            v = vehicles[next_arrival]
            next_arrival += 1
            active[v.id] = v
            initial_miles[v.id] = v.current_miles
            if v.current_miles >= v.required_miles:
                satisfied_slot[v.id] = v.arrival_slot
            departure_bucket[v.expected_departure_slot].append(v.id)

        update_membership(state, t, range(first_arrival, next_arrival), charged, left)
        left.clear()
        k = k_profile[t % cycle]
        selected = select(cfg.policy, state, t, k)
        if check_invariants and len(selected) != min(k, len(state.deficit) + len(state.topoff)):
            raise SimulationInvariantError(f"slot {t}: selected {len(selected)} of min({k}, eligible)")

        if trace:
            chosen = set(selected)
            for tier, ids in (("1", state.deficit), ("2", state.topoff)):
                for vid in ids:
                    v = active[vid]
                    needed = charge_intervals_required(v, charger)
                    trace.writerow([
                        t, k, vid, tier, v.arrival_slot, v.expected_departure_slot,
                        needed, needed - (v.expected_departure_slot - t),
                        1 if vid in chosen else 0,
                    ])

        boundary = t + 1
        for vid in selected:
            v = active[vid]
            before = v.current_miles
            v.current_miles = min(before + rate, v.battery_capacity_miles)
            charged_count[vid] += 1
            if before < v.required_miles <= v.current_miles:
                satisfied_slot[vid] = boundary
                if boundary >= v.expected_departure_slot:
                    depart(v, boundary)
        charged = selected
        if stats is not None:
            stats.total_selections += len(selected)

        for vid in departure_bucket.pop(boundary, ()):
            v = active.get(vid)
            if v is not None and vid in satisfied_slot:
                depart(v, boundary)

        if stats is not None and t % SLOTS_PER_DAY == CENSUS_SLOT_OF_DAY:
            stats.plugged_at_census.append(len(active))
        t += 1

    if stats is not None:
        stats.slots_run = t
    if check_invariants and len(outcomes) != n:
        raise SimulationInvariantError("missing outcomes for some vehicles")
    return [outcomes[v.id] for v in vehicles]


def measurement_filter(outcomes: Sequence[VehicleOutcome], cfg: SimConfig) -> list[VehicleOutcome]:
    """Outcomes for vehicles arriving inside the measurement window.

    The window excludes the warmup days at the start and the tail days
    whose vehicles might still be charging at the horizon.
    """
    kept = [o for o in outcomes if cfg.in_measurement_window(o.arrival_slot)]
    if not kept:
        raise ValueError("measurement window empty")
    return kept
