"""The 5-minute slot loop: plug in, select, charge, depart, record.

Each slot: arrivals plug in, update_membership refreshes the deficit and
top-off tiers, the capacity profile yields K charger slots, the policy
picks that many vehicles, each selected vehicle gains one interval of
charge, and vehicles that have reached both their expected departure
boundary and their required charge leave. The loop runs past the
arrival horizon until every vehicle has departed, reusing the
day-periodic capacity profile.

A vehicle is named by its rank, its row in the run's `workload.Fleet`,
whose rows come in arrival order. The counters live in int64 arrays
indexed by rank (policies.PolicyState): the picks of a slot are charged
by index, while arrival, satisfaction and departure, which happen once
per vehicle, are handled rank by rank through plain lists made once per
run. Slots with nothing plugged are skipped but still counted. The run
returns one `Outcomes` table, built as columns from the satisfied and
departure slots after the loop, once the conservation checks on them
have passed.

A traced run hands its trace to a sink, one `(slot, k, rows)` group per
slot with a candidate: rows are `TraceRow`s, the deficit tier and then
the top-off tier in list order, each with its need before the slot's
charge and whether it was selected. `trace_path` writes the same groups
as trace.csv through `csv_trace_sink`, the one trace writer.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .policies import Policy, new_policy_state, select, update_membership
from .units import SLOTS_PER_DAY
from .workload import Fleet


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


# Not frozen: a frozen dataclass sets each field through
# object.__setattr__, a cost every tiny verify run would pay. Nothing
# changes an outcome table once built.
@dataclass(slots=True, eq=False)
class Outcomes:
    """Every vehicle's outcome as columns, one row per vehicle in arrival order.

    The slot and delay columns are int64; delayed (left after its
    expected departure) and measured (arrived inside the measurement
    window, `SimConfig.measured_slots`) are bool.
    """

    id: np.ndarray
    arrival_slot: np.ndarray
    expected_departure_slot: np.ndarray
    satisfied_slot: np.ndarray
    actual_departure_slot: np.ndarray
    delay_slots: np.ndarray
    delayed: np.ndarray
    measured: np.ndarray

    def __len__(self) -> int:
        return len(self.id)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Outcomes):
            return NotImplemented
        return all(np.array_equal(a, b) for a, b in zip(self.columns(), other.columns()))

    def columns(self) -> tuple:
        """The columns in outcomes.csv order."""
        return (self.id, self.arrival_slot, self.expected_departure_slot, self.satisfied_slot,
                self.actual_departure_slot, self.delay_slots, self.delayed, self.measured)

    def rows(self, mask: np.ndarray) -> "Outcomes":
        """The outcomes of the rows that mask selects."""
        return Outcomes(*(column[mask] for column in self.columns()))


@dataclass
class RunStats:
    """Slots run and vehicles selected in a run."""

    slots_run: int = 0
    total_selections: int = 0


class TraceRow(NamedTuple):
    """One candidate of one traced slot: a trace.csv row after its slot and k."""

    vehicle_id: int
    tier: int  # 1 deficit, 2 top-off
    arrival_slot: int
    expected_departure_slot: int
    intervals_needed: int  # before the slot's charge
    delay_if_continuous: int  # intervals_needed - (expected_departure_slot - slot)
    selected: bool


# Builds a TraceRow from a tuple of its fields in one C call, without the
# Python-level __new__ that TraceRow(...) runs: a default-scale traced
# cell builds millions of rows.
_new_row = tuple.__new__

# Every trace field is an integer (selected prints as 0 or 1), so no field
# needs quoting: the rows are formatted directly, one write per slot. The
# "\r\n" line ending is csv.writer's, so trace.csv stays byte-identical.
_TRACE_HEADER = ",".join(("slot", "k", *TraceRow._fields)) + "\r\n"
_TRACE_ROW_FORMAT = ",".join(["%d"] * len(TraceRow._fields)) + "\r\n"


def csv_trace_sink(fh):
    """A trace sink that writes each (slot, k, rows) group to fh as trace.csv rows.

    The caller writes the header (`run_simulation` does for trace_path).
    """
    write = fh.write

    def sink(group):
        slot, k, rows = group
        row_format = f"{slot},{k},{_TRACE_ROW_FORMAT}"
        write("".join([row_format % row for row in rows]))

    return sink


class SimulationInvariantError(RuntimeError):
    """An internal conservation or ordering rule was violated."""


def run_simulation(
    cfg: SimConfig,
    fleet: Fleet,
    k_profile: Sequence[int],
    *,
    trace_path=None,
    trace_sink=None,
    stats: RunStats | None = None,
) -> Outcomes:
    """Simulate one policy over the whole fleet; one outcome row per vehicle.

    The fleet is not changed. k_profile is K for each slot of one
    capacity period (a day for a calibrated grid); it is cycled, so
    post-horizon slots see the same pattern. Raises ValueError before
    the loop if the fleet needs charge and no slot has capacity.

    trace_sink, if given, is called with each slot's (slot, k, rows)
    group; trace_path, if given, receives the same groups as trace.csv.
    """
    if not any(k_profile) and fleet.need.any():
        raise ValueError(
            f"the capacity profile has no charger slot (K = 0 in every slot), but the fleet "
            f"needs {int(fleet.need.sum())} charging intervals; raise the supply ratio or the arrivals")
    state = new_policy_state(cfg.policy, fleet)
    if not trace_path:
        return _run_loop(cfg, fleet, k_profile, trace_sink, stats, state)
    with open(trace_path, "w", newline="", encoding="utf-8") as fh:
        fh.write(_TRACE_HEADER)
        write = csv_trace_sink(fh)
        if trace_sink is None:
            sink = write
        else:
            def sink(group):
                trace_sink(group)
                write(group)
        return _run_loop(cfg, fleet, k_profile, sink, stats, state)


def _run_loop(cfg, fleet, k_profile, trace, stats, state):
    # Ids appear only in outcomes and trace rows. Work done once per pick
    # or per candidate is done on whole arrays; work done once per
    # vehicle (arriving, being satisfied, leaving) is done rank by rank,
    # reading plain lists.
    need, room = state.need, state.room
    n = len(fleet)
    arrivals = fleet.arrival_slot.tolist()
    departures = fleet.expected_departure_slot.tolist()
    ids = fleet.id.tolist() if trace else None
    cycle = len(k_profile)
    # The satisfied slot stays the arrival slot unless charging brings
    # need to 0; the slot at which the vehicle left is set when it leaves.
    satisfied_slot = arrivals.copy()
    left_at = [-1] * n
    departure_bucket = defaultdict(list)  # boundary slot -> ranks due to leave there

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
        if not plugged and arrivals[next_arrival] > t:
            t = arrivals[next_arrival]  # nothing plugged until the next arrival: skip to it
        if t >= max_slots:
            raise RuntimeError(f"simulation did not drain within {max_slots} slots")

        first_arrival = next_arrival
        while next_arrival < n and arrivals[next_arrival] == t:
            departure_bucket[departures[next_arrival]].append(next_arrival)
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
                    if not len(ranks):
                        continue
                    for rank, needed in zip(ranks.tolist(), need[ranks].tolist()):
                        t_l = departures[rank]
                        rows.append(_new_row(TraceRow, (ids[rank], tier, arrivals[rank], t_l, needed,
                                                        needed - (t_l - t), rank in chosen)))
                trace((t, k, rows))
            if count:
                spare = room[selected]
                if np.count_nonzero(spare) < count:
                    rank = int(selected[spare.argmin()])
                    raise SimulationInvariantError(
                        f"slot {t}: vehicle {fleet.id[rank]} selected with a full battery")
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
                    if departures[rank] < boundary:
                        leaving.append(rank)
                selections += count

        leaving += [rank for rank in departure_bucket.pop(boundary, ()) if not need[rank]]
        for rank in leaving:
            left_at[rank] = boundary
            room[rank] = 0  # a vehicle that left takes no more charge
            plugged -= 1
            emptied = True
        t += 1

    if stats is not None:
        stats.slots_run = t
        stats.total_selections += selections
    satisfied_slot = np.array(satisfied_slot, dtype=np.int64)
    left_at = np.array(left_at, dtype=np.int64)
    departure = state.departure
    _check_departures(fleet, need, departure, satisfied_slot, left_at)
    delay = left_at - departure
    arrival = fleet.arrival_slot
    window = cfg.measured_slots
    return Outcomes(
        fleet.id, arrival, departure, satisfied_slot, left_at, delay, delay > 0,
        (arrival >= window.start) & (arrival < window.stop),
    )


def _check_departures(fleet, need, departure, satisfied_slot, left_at) -> None:
    """Every vehicle left, with its need met, at max(expected departure, satisfied slot)."""
    if len(left_at) and left_at.min() < 0:
        raise SimulationInvariantError("missing outcomes for some vehicles")
    if np.count_nonzero(need):
        rank = need.argmax()
        raise SimulationInvariantError(
            f"vehicle {fleet.id[rank]} departed {need[rank]} intervals short")
    wrong = left_at != np.maximum(satisfied_slot, departure)
    if np.count_nonzero(wrong):
        rank = wrong.argmax()
        raise SimulationInvariantError(
            f"vehicle {fleet.id[rank]} departed at {left_at[rank]}, not "
            f"{max(satisfied_slot[rank], departure[rank])}")


def measurement_filter(outcomes: Outcomes) -> Outcomes:
    """Outcomes for vehicles arriving inside the measurement window.

    The window (`SimConfig.measured_slots`, applied when the outcomes
    are built) excludes the warmup days at the start and the tail days
    whose vehicles might still be charging at the horizon.
    """
    if not outcomes.measured.any():
        raise ValueError("measurement window empty")
    return outcomes.rows(outcomes.measured)
