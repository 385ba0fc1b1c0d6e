"""The 5-minute slot loop: plug in, select, charge, depart, record.

Each slot: arrivals plug in, list membership takes in the slot's
events (arrivals, the previous slot's charges and departures), the
capacity profile yields K charger slots, the policy picks that many
vehicles, each selected vehicle gains one interval of charge, and
vehicles that have reached both their expected departure boundary and
their required charge leave. The loop runs past the arrival horizon until every
vehicle has departed, reusing the day-periodic capacity profile.
"""

from __future__ import annotations

import csv
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Sequence

from .policies import Policy, new_policy_state, select, update_membership
from .powergrid import ChargerSpec
from .units import SLOTS_PER_DAY, SLOTS_PER_HOUR
from .workload import Vehicle

# Slot of day at which the plugged-vehicle census is sampled (4 a.m.,
# the nightly trough, a stable point for drift detection).
CENSUS_SLOT_OF_DAY = 4 * SLOTS_PER_HOUR


@dataclass(frozen=True)
class SimConfig:
    policy: Policy
    days: int
    warmup_days: int
    last_measured_day: int

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
    k_profile: Sequence[int],
    charger: ChargerSpec,
    *,
    trace_path=None,
    stats: RunStats | None = None,
) -> list[VehicleOutcome]:
    """Simulate one policy over the whole fleet; one outcome per vehicle.

    The input fleet is not mutated. k_profile is K for each slot of one
    capacity period (a day for a calibrated grid); it is cycled, so
    post-horizon slots see the same pattern.
    """
    vehicles = sorted(fleet, key=lambda v: (v.arrival_slot, v.id))
    if len({v.id for v in vehicles}) != len(vehicles):
        raise ValueError("vehicle ids must be unique")

    trace_file = open(trace_path, "w", newline="", encoding="utf-8") if trace_path else None
    try:
        return _run_loop(
            cfg, vehicles, k_profile,
            csv.writer(trace_file) if trace_file else None,
            stats, state=new_policy_state(cfg.policy, charger, vehicles),
        )
    finally:
        if trace_file:
            trace_file.close()


def _run_loop(cfg, vehicles, k_profile, trace, stats, state):
    # Vehicles are named by rank, their index in `vehicles`; ids appear
    # only in outcomes and trace rows.
    need, room = state.need, state.room
    n = len(vehicles)
    cycle = len(k_profile)
    plugged = 0                           # arrived and not yet departed
    charged: list[int] = []               # ranks charged in the previous slot
    left: list[int] = []                  # ranks departed at the last boundary
    departure_bucket = defaultdict(list)  # boundary slot -> ranks due to leave
    satisfied_slot = [0] * n              # meaningful once need[rank] is 0
    outcomes: list[VehicleOutcome | None] = [None] * n
    if trace:
        trace.writerow([
            "slot", "k", "vehicle_id", "tier", "arrival_slot",
            "expected_departure_slot", "intervals_needed",
            "delay_if_continuous", "selected",
        ])

    def depart(rank: int, boundary: int) -> None:
        nonlocal plugged
        v = vehicles[rank]
        sat = satisfied_slot[rank]
        actual = max(v.expected_departure_slot, sat)
        if need[rank]:
            raise SimulationInvariantError(f"vehicle {v.id} departing {need[rank]} intervals short")
        if boundary != actual:
            raise SimulationInvariantError(f"vehicle {v.id} departing at {boundary}, not {actual}")
        outcomes[rank] = VehicleOutcome(
            id=v.id,
            arrival_slot=v.arrival_slot,
            expected_departure_slot=v.expected_departure_slot,
            satisfied_slot=sat,
            actual_departure_slot=actual,
            delay_slots=actual - v.expected_departure_slot,
            delayed=actual > v.expected_departure_slot,
            measured=cfg.in_measurement_window(v.arrival_slot),
        )
        plugged -= 1
        left.append(rank)

    max_slots = (cfg.days + 60) * SLOTS_PER_DAY
    next_arrival = 0
    t = 0
    while next_arrival < n or plugged:
        if t >= max_slots:
            raise RuntimeError(f"simulation did not drain within {max_slots} slots")

        first_arrival = next_arrival
        while next_arrival < n and vehicles[next_arrival].arrival_slot == t:
            if not need[next_arrival]:
                satisfied_slot[next_arrival] = t
            departure_bucket[vehicles[next_arrival].expected_departure_slot].append(next_arrival)
            next_arrival += 1
        plugged += next_arrival - first_arrival

        update_membership(state, t, range(first_arrival, next_arrival), charged, left)
        left.clear()
        k = k_profile[t % cycle]
        selected = select(cfg.policy, state, t, k)
        if len(selected) != min(k, len(state.deficit) + len(state.topoff)):
            raise SimulationInvariantError(f"slot {t}: selected {len(selected)} of min({k}, eligible)")

        if trace:
            chosen = set(selected)
            for tier, ranks in (("1", state.deficit), ("2", state.topoff)):
                for rank in ranks:
                    v = vehicles[rank]
                    needed = need[rank]
                    trace.writerow([
                        t, k, v.id, tier, v.arrival_slot, v.expected_departure_slot,
                        needed, needed - (v.expected_departure_slot - t),
                        1 if rank in chosen else 0,
                    ])

        boundary = t + 1
        for rank in selected:
            room[rank] -= 1
            if room[rank] < 0:
                raise SimulationInvariantError(f"slot {t}: vehicle {vehicles[rank].id} selected with a full battery")
            if need[rank]:
                need[rank] -= 1
                if not need[rank]:
                    satisfied_slot[rank] = boundary
                    if boundary >= vehicles[rank].expected_departure_slot:
                        depart(rank, boundary)
        charged = selected
        if stats is not None:
            stats.total_selections += len(selected)

        for rank in departure_bucket.pop(boundary, ()):
            if not need[rank] and outcomes[rank] is None:
                depart(rank, boundary)

        if stats is not None and t % SLOTS_PER_DAY == CENSUS_SLOT_OF_DAY:
            stats.plugged_at_census.append(plugged)
        t += 1

    if stats is not None:
        stats.slots_run = t
    if None in outcomes:
        raise SimulationInvariantError("missing outcomes for some vehicles")
    return outcomes


def measurement_filter(outcomes: Sequence[VehicleOutcome]) -> list[VehicleOutcome]:
    """Outcomes for vehicles arriving inside the measurement window.

    The window (`SimConfig.in_measurement_window`, applied when each
    outcome is built) excludes the warmup days at the start and the tail
    days whose vehicles might still be charging at the horizon.
    """
    kept = [o for o in outcomes if o.measured]
    if not kept:
        raise ValueError("measurement window empty")
    return kept
