"""The 5-minute slot loop: plug in, select, charge, depart, record.

Each slot: arrivals plug in, update_membership refreshes the deficit and
top-off tiers, the capacity profile yields K charger slots, the policy
picks that many vehicles, each selected vehicle gains one interval of
charge, and vehicles that have reached both their expected departure
boundary and their required charge leave. The loop runs past the
arrival horizon until every vehicle has departed, reusing the
day-periodic capacity profile.

The counters live in int64 arrays indexed by rank (policies.PolicyState):
the picks of a slot are charged by index, while arrival, satisfaction
and departure, which happen once per vehicle, are handled rank by rank.
Slots with nothing plugged are skipped but still counted. Outcomes are
built from the satisfied and departure slots after the loop, once the
conservation checks on them have passed.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from itertools import islice
from typing import Sequence

import numpy as np

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

    @property
    def measured_slots(self) -> range:
        """Arrival slots of the measurement window: zero-based days warmup_days to last_measured_day - 1."""
        return range(self.warmup_days * SLOTS_PER_DAY, self.last_measured_day * SLOTS_PER_DAY)

    def in_measurement_window(self, arrival_slot: int) -> bool:
        return arrival_slot in self.measured_slots


# Not frozen: a frozen dataclass sets each field through
# object.__setattr__, which made building a default-scale run's outcomes
# cost about four times as much. Nothing changes an outcome once built.
@dataclass(slots=True)
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


# Every trace field is an integer, so no field needs quoting: the rows
# are formatted directly, one write per slot, which costs less than
# csv.writer on the many tiny runs of a verify campaign. The "\r\n" line
# ending is csv.writer's, so trace.csv stays byte-identical.
_TRACE_HEADER = (
    "slot,k,vehicle_id,tier,arrival_slot,expected_departure_slot,"
    "intervals_needed,delay_if_continuous,selected\r\n"
)


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
    vehicles = _arrival_order(fleet)
    trace_file = open(trace_path, "w", newline="", encoding="utf-8") if trace_path else None
    try:
        return _run_loop(
            cfg, vehicles, k_profile, trace_file, stats,
            state=new_policy_state(cfg.policy, charger, vehicles),
        )
    finally:
        if trace_file:
            trace_file.close()


def _arrival_order(fleet: Sequence[Vehicle]) -> list[Vehicle]:
    """The fleet sorted by (arrival slot, id), after checking that ids are unique.

    A generated fleet already comes in that order with increasing ids,
    which one pass confirms; sorting it anyway would build a key tuple
    per vehicle and checking its ids a set, the largest transient
    allocations of a default-scale run.
    """
    if all(a.id < b.id and a.arrival_slot <= b.arrival_slot for a, b in zip(fleet, islice(fleet, 1, None))):
        return list(fleet)
    vehicles = sorted(fleet, key=lambda v: (v.arrival_slot, v.id))
    if len({v.id for v in vehicles}) != len(vehicles):
        raise ValueError("vehicle ids must be unique")
    return vehicles


def _run_loop(cfg, vehicles, k_profile, trace, stats, state):
    # Vehicles are named by rank, their index in `vehicles`; ids appear
    # only in outcomes and trace rows. Work done once per pick or per
    # candidate is done on whole arrays; work done once per vehicle
    # (arriving, being satisfied, leaving) is done rank by rank.
    need, room = state.need, state.room
    n = len(vehicles)
    cycle = len(k_profile)
    # The satisfied slot stays the arrival slot unless charging brings
    # need to 0; the slot at which the vehicle left is set when it leaves.
    satisfied_slot = [v.arrival_slot for v in vehicles]
    left_at = [-1] * n
    departure_bucket = defaultdict(list)  # boundary slot -> ranks due to leave there
    census = stats.plugged_at_census if stats is not None else None
    if trace:
        trace.write(_TRACE_HEADER)

    max_slots = (cfg.days + 60) * SLOTS_PER_DAY
    if n and any(k_profile):
        # Once every expected departure has passed (every vehicle has
        # arrived by then), only vehicles short of their need stay
        # plugged, and every capacity cycle has a slot that charges one of
        # them: the simple variants' single list holds nothing else by
        # then either. A run that drains ends within one cycle per
        # interval of total need after the last expected departure.
        max_slots = min(max_slots, int(state.departure.max()) + cycle * int(need.sum()))
    plugged = 0        # arrived and not yet departed
    selections = 0
    # Whether a vehicle's need, or its room, reached 0 at the last boundary.
    satisfied = emptied = False
    next_arrival = 0
    t = 0
    while next_arrival < n or plugged:
        if not plugged and vehicles[next_arrival].arrival_slot > t:
            # Nothing plugged until the next arrival: skip to it.
            skipped_to = vehicles[next_arrival].arrival_slot
            if census is not None:
                first = t + (CENSUS_SLOT_OF_DAY - t) % SLOTS_PER_DAY
                census.extend(0 for _ in range(first, skipped_to, SLOTS_PER_DAY))
            t = skipped_to
        if t >= max_slots:
            raise RuntimeError(f"simulation did not drain within {max_slots} slots")

        first_arrival = next_arrival
        while next_arrival < n and vehicles[next_arrival].arrival_slot == t:
            departure_bucket[vehicles[next_arrival].expected_departure_slot].append(next_arrival)
            next_arrival += 1
        plugged += next_arrival - first_arrival

        update_membership(state, t, range(first_arrival, next_arrival), satisfied, emptied)
        boundary = t + 1
        satisfied = emptied = False
        leaving = []
        # With both tiers empty nothing is selected, and only departures
        # can happen at the slot's end.
        eligible = len(state.deficit) + len(state.topoff)
        if eligible:
            k = k_profile[t % cycle]
            selected = select(cfg.policy, state, t, k)
            count = len(selected)
            if count != min(k, eligible):
                raise SimulationInvariantError(f"slot {t}: selected {count} of min({k}, eligible)")
            if trace:
                chosen = set(selected.tolist())
                rows = []
                for tier, ranks in ((1, state.deficit), (2, state.topoff)):
                    for rank, needed in zip(ranks.tolist(), need[ranks].tolist()):
                        v = vehicles[rank]
                        t_l = v.expected_departure_slot
                        rows.append(f"{t},{k},{v.id},{tier},{v.arrival_slot},{t_l},{needed},"
                                    f"{needed - (t_l - t)},{1 if rank in chosen else 0}\r\n")
                trace.write("".join(rows))
            if count:
                spare = room[selected]
                if np.count_nonzero(spare) < count:
                    rank = int(selected[spare.argmin()])
                    raise SimulationInvariantError(
                        f"slot {t}: vehicle {vehicles[rank].id} selected with a full battery")
                spare -= 1
                room[selected] = spare
                emptied = np.count_nonzero(spare) < count
                needed = need[selected]
                need[selected] = needed - needed.astype(bool)
                for rank in selected[needed == 1].tolist():
                    satisfied = True
                    satisfied_slot[rank] = boundary
                    # Past its expected departure, a vehicle leaves as
                    # soon as it holds its required charge.
                    if vehicles[rank].expected_departure_slot < boundary:
                        leaving.append(rank)
                selections += count

        leaving += [rank for rank in departure_bucket.pop(boundary, ()) if not need[rank]]
        for rank in leaving:
            left_at[rank] = boundary
            room[rank] = 0  # a vehicle that left takes no more charge
            plugged -= 1
            emptied = True

        if census is not None and t % SLOTS_PER_DAY == CENSUS_SLOT_OF_DAY:
            census.append(plugged)
        t += 1

    if stats is not None:
        stats.slots_run = t
        stats.total_selections += selections
    _check_departures(vehicles, need, state.departure, satisfied_slot, left_at)
    window = cfg.measured_slots
    return [
        VehicleOutcome(
            v.id, v.arrival_slot, v.expected_departure_slot, sat, actual,
            actual - v.expected_departure_slot, actual > v.expected_departure_slot,
            v.arrival_slot in window,
        )
        for v, sat, actual in zip(vehicles, satisfied_slot, left_at)
    ]


def _check_departures(vehicles, need, departure, satisfied_slot, left_at) -> None:
    """Every vehicle left, with its need met, at max(expected departure, satisfied slot)."""
    if min(left_at, default=0) < 0:
        raise SimulationInvariantError("missing outcomes for some vehicles")
    if np.count_nonzero(need):
        rank = need.argmax()
        raise SimulationInvariantError(
            f"vehicle {vehicles[rank].id} departed {need[rank]} intervals short")
    due = np.array(satisfied_slot, dtype=np.int64)
    np.maximum(due, departure, out=due)
    wrong = np.array(left_at, dtype=np.int64) != due
    if np.count_nonzero(wrong):
        rank = wrong.argmax()
        raise SimulationInvariantError(
            f"vehicle {vehicles[rank].id} departed at {left_at[rank]}, not {due[rank]}")


def measurement_filter(outcomes: Sequence[VehicleOutcome]) -> list[VehicleOutcome]:
    """Outcomes for vehicles arriving inside the measurement window.

    The window (`SimConfig.measured_slots`, applied when each
    outcome is built) excludes the warmup days at the start and the tail
    days whose vehicles might still be charging at the horizon.
    """
    kept = [o for o in outcomes if o.measured]
    if not kept:
        raise ValueError("measurement window empty")
    return kept
