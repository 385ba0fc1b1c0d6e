"""The 5-minute slot loop: plug in, select, charge, depart, record.

The loop consumes a per-slot capacity profile and knows nothing of the
grid or of the measurement window. Each slot: arrivals plug in,
update_membership refreshes the deficit and top-off tiers, the capacity
profile yields K charger slots, the policy picks that many vehicles,
each selected vehicle gains one interval of charge, and vehicles that
have reached both their expected departure boundary and their required
charge leave. The loop runs past the arrival horizon, reusing the
day-periodic capacity profile, until every vehicle whose outcome the
caller reads has departed: by default every vehicle, or the contiguous
ranks the caller names. The engine is causal, so a vehicle's outcome
does not depend on the slots after it left, and a run stopped at a
range gives that range the rows of the full run.

A vehicle is named by its rank, its row in the run's `workload.Fleet`,
whose rows come in arrival order. The counters live in int64 arrays
indexed by rank (policies.PolicyState): the picks of a slot are charged
by index, each part on one counter (the deficit share on need, the
top-off share on spare), while arrival, satisfaction and departure,
which happen once per vehicle, are handled rank by rank: the loop keeps
a pointer into the fleet's arrival order (`workload.Fleet.arrivals`) and
one into its expected-departure order (`.departure_order`), whose
vehicles due at a boundary are one slice.

A tiered policy serves the deficit tier before the top-off tier, and a
satisfied vehicle's satisfied slot and departure are fixed, so top-off
service changes no outcome. Only a run that reads it serves it: a
traced run, whose rows list the top-off tier, and a simple variant,
whose one list mixes both kinds of vehicle, so that a satisfied vehicle
can take a pick. In any other run a satisfied vehicle joins no tier and
is never picked.

Once no vehicle is a candidate (nothing is plugged, or every plugged
vehicle is full, or, in a run that does not serve top-off, satisfied,
and waits for its expected departure), the loop skips ahead to the next
arrival or departure boundary; skipped slots still count. The tiers are
refreshed only in a slot where one can change.

A run that does not serve the top-off tier charges each uncontended
stretch of slots in one step (`_charge_stretch`). At a slot with a
candidate where K covers the deficit tier, select would pick the whole
tier and the rotation policy would move nothing, and that holds from
slot to slot for as long as the tier, every vehicle of it charged every
slot, stays within K. So one numpy pass over a window of at most
a day computes the tier's size in each of its slots, a running sum over
the tier's needs and the window's arrivals, and the stretch ends before
the first slot where that size exceeds K, after the window, before the
give-up cap, or at the boundary where the last vehicle of the range
leaves. Its needs, satisfied slots, arrivals, departures and picks are
applied at once, and its deficit tier left as update_membership would,
so outcomes, slots run and picks are those of the slot-by-slot path, and
the conservation checks after the loop still read every vehicle. A run
that serves the top-off tier goes slot by slot throughout, and so does
every contended slot. In every run, traced or not, select is consulted
only in a contended slot, where K is below the number of candidates
(both tiers together): a slot where K covers them all charges both
tiers whole, as select would pick them, a simple variant still
splitting its one list by need, and its trace rows are all selected.

The run returns one `Outcomes` table, built as columns from the
satisfied and departure slots after the loop, once the conservation
checks on them have passed. It holds what the run decided, for every
vehicle of the range: which vehicles a metric counts, and whether a
delay makes a vehicle late, is for `metrics` to say.

A traced run hands its trace to a sink, one `(slot, k, rows)` group per
slot with a candidate: rows are `TraceRow`s, the deficit tier and then
the top-off tier in list order, each with its need before the slot's
charge and whether it was selected. `trace_path` writes the same groups
as trace.csv through `csv_trace_sink`, the one trace writer.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .policies import Policy, new_policy_state, select, update_membership
from .units import SLOTS_PER_DAY
from .workload import Fleet


# Not frozen: a frozen dataclass sets each field through
# object.__setattr__, a cost every tiny verify run would pay. Nothing
# changes an outcome table once built.
@dataclass(slots=True, eq=False)
class Outcomes:
    """Every vehicle's outcome as int64 columns, one row per vehicle in arrival order.

    delay_slots is how long after its expected departure the vehicle
    left (0 when on time).
    """

    id: np.ndarray
    arrival_slot: np.ndarray
    expected_departure_slot: np.ndarray
    satisfied_slot: np.ndarray
    actual_departure_slot: np.ndarray
    delay_slots: np.ndarray

    def __len__(self) -> int:
        return len(self.id)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Outcomes):
            return NotImplemented
        return all(np.array_equal(a, b) for a, b in zip(self.columns(), other.columns()))

    def columns(self) -> tuple:
        """The columns in field order."""
        return (self.id, self.arrival_slot, self.expected_departure_slot, self.satisfied_slot,
                self.actual_departure_slot, self.delay_slots)


@dataclass
class RunStats:
    """Slots run, and the picks a run made: a run that does not serve
    top-off (see the module docstring) makes deficit picks only."""

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

# trace.csv's columns: a row's slot and k, then its TraceRow.
TRACE_FIELDS = ("slot", "k", *TraceRow._fields)

# Every trace field is an integer (selected prints as 0 or 1), so no field
# needs quoting: the rows are formatted directly, one write per slot. The
# "\r\n" line ending is csv.writer's, so trace.csv stays byte-identical.
_TRACE_HEADER = ",".join(TRACE_FIELDS) + "\r\n"
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
    policy: Policy,
    fleet: Fleet,
    k_profile: Sequence[int],
    *,
    ranks: range | None = None,
    trace_path=None,
    trace_sink=None,
    stats: RunStats | None = None,
) -> Outcomes:
    """Simulate one policy over the fleet; one outcome row per vehicle of ranks.

    The fleet is not changed. k_profile is K for each slot of one
    capacity period (a day for a calibrated grid); it is cycled, so
    post-horizon slots see the same pattern. ranks (default: every
    rank) are the contiguous fleet rows whose outcomes the caller reads:
    the loop ends at the boundary where the last of them leaves, and
    only their rows are returned. The run reads the run data the fleet
    carries (see `workload.Fleet`), built once with the fleet. Raises
    ValueError before the loop if ranks is not a step-1 range inside the
    fleet, or if the fleet needs charge and no slot has capacity, and
    RuntimeError if the run has not ended 60 days after the day of the
    last expected departure, or by the drain bound if that comes first.

    trace_sink, if given, is called with each slot's (slot, k, rows)
    group; trace_path, if given, receives the same groups as trace.csv.
    A run with either serves the top-off tier (the module docstring says
    which runs do).
    """
    if not any(k_profile) and fleet.total_need:
        raise ValueError(
            f"the capacity profile has no charger slot (K = 0 in every slot), but the fleet "
            f"needs {fleet.total_need} charging intervals; raise the supply ratio or the arrivals")
    if ranks is None:
        ranks = range(len(fleet))
    elif not (ranks.step == 1 and 0 <= ranks.start <= ranks.stop <= len(fleet)):
        raise ValueError(f"{ranks} is not a step-1 range of the fleet's {len(fleet)} ranks")
    serve_topoff = bool(trace_path) or trace_sink is not None or not policy.use_distance_info
    state = new_policy_state(policy, fleet, serve_topoff)
    if not trace_path:
        return _run_loop(policy, fleet, k_profile, ranks, trace_sink, stats, state)
    with open(trace_path, "w", newline="", encoding="utf-8") as fh:
        fh.write(_TRACE_HEADER)
        write = csv_trace_sink(fh)
        if trace_sink is None:
            sink = write
        else:
            def sink(group):
                trace_sink(group)
                write(group)
        return _run_loop(policy, fleet, k_profile, ranks, sink, stats, state)


def _run_loop(policy, fleet, k_profile, ranks, trace, stats, state):
    # Ids appear only in outcomes and trace rows. Work done once per pick
    # or per candidate is done on whole arrays; work done once per
    # vehicle (arriving, being satisfied, leaving) is done rank by rank,
    # reading plain lists.
    need, spare = state.need, state.spare
    # Without distance information one list holds every not-full
    # vehicle, so its picks are split by need instead of by tier.
    split_by_need = not policy.use_distance_info
    n = len(fleet)
    arrivals, departures = fleet.arrivals, fleet.departures
    order, boundaries = fleet.departure_order, fleet.departure_boundaries
    ids = fleet.id.tolist() if trace else None
    cycle = len(k_profile)
    # The satisfied slot stays the arrival slot unless charging brings
    # need to 0; the slot at which the vehicle left is set when it leaves.
    satisfied_slot = arrivals.copy()
    left_at = [-1] * n

    # Give up 60 days after the day of the last expected departure, or
    # sooner at the drain bound.
    max_slots = (fleet.last_departure // SLOTS_PER_DAY + 61) * SLOTS_PER_DAY
    if any(k_profile):
        # Once every expected departure has passed (every vehicle has
        # arrived by then), only vehicles short of their need stay
        # plugged, and every capacity cycle has a slot that charges one of
        # them: the simple variants' single list holds nothing else by
        # then either. A run that drains ends within one cycle per
        # interval of total need after the last expected departure.
        max_slots = min(max_slots, fleet.last_departure + cycle * fleet.total_need)
    # K over a capacity cycle and the day after it, so that K for a
    # stretch starting at any slot is one slice; None in a run that
    # charges slot by slot only, or over an empty profile, which no slot
    # can read.
    k_ahead = None
    if cycle and not state.serve_topoff:
        k_ahead = np.asarray(k_profile, dtype=np.int64)[np.arange(cycle + SLOTS_PER_DAY) % cycle]
    plugged = 0        # arrived and not yet departed
    first_read, stop = ranks.start, ranks.stop
    remaining = stop - first_read  # vehicles of ranks yet to depart
    selections = 0
    # Whether a vehicle's need, or a satisfied vehicle's spare, reached 0
    # at the last boundary.
    satisfied = emptied = False
    # Whether the last slot had no candidate, or left nothing plugged.
    idle = True
    # The next rank to arrive, and the first in departure order due after t.
    next_arrival = due = 0
    t = 0
    while remaining:
        if idle:
            # Both tiers are empty and only an arrival fills them, so the
            # slots before the next arrival select nothing and change
            # nothing but at a departure boundary: skip to whichever
            # comes first. A run with neither left cannot drain.
            t = arrivals[next_arrival] if next_arrival < n else max_slots
            if due < n:
                t = min(t, boundaries[due] - 1)
        if t >= max_slots:
            raise RuntimeError(f"simulation did not drain within {max_slots} slots")

        first_arrival = next_arrival
        while next_arrival < n and arrivals[next_arrival] == t:
            next_arrival += 1
        plugged += next_arrival - first_arrival

        # Only an arrival, a met need or a counter at 0 changes a tier.
        if first_arrival < next_arrival or satisfied or emptied:
            update_membership(state, range(first_arrival, next_arrival), satisfied, emptied)
            satisfied = emptied = False
        boundary = t + 1
        leaving = []
        # With both tiers empty nothing is selected, and only departures
        # can happen at the slot's end.
        eligible = len(state.deficit) + len(state.topoff)
        if eligible:
            k = k_profile[t % cycle]
            if k < eligible:
                k1 = min(k, len(state.deficit))  # select's deficit share comes first
                selected = select(policy, state, t, k)
                if len(selected) != k:
                    raise SimulationInvariantError(
                        f"slot {t}: selected {len(selected)} of min({k}, eligible)")
                first, second = (selected, ()) if k1 == k else (selected[:k1], selected[k1:])
            elif k_ahead is not None:
                end = min(t + SLOTS_PER_DAY, max_slots)
                t, arrived, due, left, left_read, picks = _charge_stretch(
                    state, fleet, t, k_ahead[t % cycle:t % cycle + end - t], next_arrival, due,
                    satisfied_slot, left_at, first_read, stop, remaining)
                plugged += arrived - next_arrival - left
                next_arrival = arrived
                remaining -= left_read
                selections += picks
                idle = not len(state.deficit)
                continue
            else:
                # K covers every candidate: select would return both tiers
                # whole, and the rotation policy would move nothing.
                selected = None
                first, second = state.deficit, state.topoff
            if trace:
                chosen = None if selected is None else set(selected.tolist())
                rows = []
                for tier, ranks in ((1, state.deficit), (2, state.topoff)):
                    if not len(ranks):
                        continue
                    for rank, needed in zip(ranks.tolist(), need[ranks].tolist()):
                        t_l = departures[rank]
                        rows.append(_new_row(TraceRow, (ids[rank], tier, arrivals[rank], t_l, needed,
                                                        needed - (t_l - t),
                                                        chosen is None or rank in chosen)))
                trace((t, k, rows))
            # A pick short of its need spends need, any other spends spare.
            if split_by_need:
                short = need[first].astype(bool)
                first, second = first[short], first[~short]
            if len(first):
                needed = need[first]
                if np.count_nonzero(needed) < len(first):
                    _refuse_picks(fleet, spare, t, first, needed)
                needed -= 1
                need[first] = needed
                for rank in first[needed == 0].tolist():
                    satisfied = True
                    satisfied_slot[rank] = boundary
                    if not spare[rank]:
                        emptied = True  # its battery is full at its requirement
                    # Past its expected departure, a vehicle leaves as
                    # soon as it holds its required charge.
                    if departures[rank] < boundary:
                        leaving.append(rank)
            if len(second):
                left = spare[second]
                if np.count_nonzero(left) < len(second):
                    rank = int(second[left.argmin()])
                    raise SimulationInvariantError(
                        f"slot {t}: vehicle {fleet.id[rank]} selected with a full battery")
                left -= 1
                spare[second] = left
                if np.count_nonzero(left) < len(second):
                    emptied = True
            selections += min(k, eligible)

        if due < n and boundaries[due] == boundary:
            first_due, due = due, bisect_right(boundaries, boundary, due)
            leaving += [rank for rank in order[first_due:due] if not need[rank]]
        for rank in leaving:
            left_at[rank] = boundary
            spare[rank] = 0  # a vehicle that left takes no more charge
            plugged -= 1
            if first_read <= rank < stop:
                remaining -= 1
            emptied = True
        idle = not (eligible and plugged)
        t = boundary

    if stats is not None:
        stats.slots_run = t
        stats.total_selections += selections
    if -1 in left_at[first_read:stop]:
        raise SimulationInvariantError("missing outcomes for some vehicles")
    satisfied_slot = np.array(satisfied_slot, dtype=np.int64)
    left_at = np.array(left_at, dtype=np.int64)
    ids, arrival, departure = fleet.id, fleet.arrival_slot, fleet.expected_departure_slot
    if stop - first_read < n:
        # Part of the fleet: the checks read every vehicle that left, and
        # only the range's rows are returned. A whole-fleet run skips the
        # masks, a cost every tiny verify run would pay.
        done = left_at >= 0
        _check_departures(ids[done], need[done], departure[done], satisfied_slot[done], left_at[done])
        read = slice(first_read, stop)
        ids, arrival, departure, satisfied_slot, left_at = (
            ids[read], arrival[read], departure[read], satisfied_slot[read], left_at[read])
    else:
        _check_departures(ids, need, departure, satisfied_slot, left_at)
    return Outcomes(ids, arrival, departure, satisfied_slot, left_at, left_at - departure)


def _refuse_picks(fleet, spare, t, picked, needed) -> None:
    """Raise for a deficit pick of slot t that has no need (needed: the picks' need)."""
    rank = int(picked[needed.argmin()])
    why = "with a full battery" if not spare[rank] else "from the deficit tier with no need"
    raise SimulationInvariantError(f"slot {t}: vehicle {fleet.id[rank]} selected {why}")


def _charge_stretch(state, fleet, t, k_window, next_arrival, due,
                    satisfied_slot, left_at, first_read, stop, remaining):
    """Run slots t, t + 1, ... in one step, charging every deficit vehicle in each.

    At slot t the tiers are refreshed, there is no top-off tier, and K
    covers the deficit tier. k_window is K from slot t on, one entry per
    slot the stretch may run. The stretch ends before the first slot
    whose deficit tier would outgrow K if every deficit vehicle were
    charged every slot, after the window's last slot, or at the boundary
    where the last of the remaining vehicles of ranks [first_read, stop)
    leaves. In each of its slots select would pick the whole deficit tier,
    and the rotation policy would move nothing.

    due is the first index of the fleet's departure order due after slot
    t. Returns the boundary the stretch ends at, the rank of the next
    vehicle to arrive, the first index of the departure order due after
    that boundary, how many vehicles left, how many of those are in
    ranks, and the picks made.
    """
    need, spare = state.need, state.spare
    arrival, departure = fleet.arrival_slot, fleet.expected_departure_slot
    deficit = state.deficit
    needed = need[deficit]
    if np.count_nonzero(needed) < len(deficit):
        _refuse_picks(fleet, spare, t, deficit, needed)
    # Every vehicle charged in the window is in the deficit tier from its
    # start (counted from t: 0, or its arrival) until its need is met,
    # at `full`, so the deficit's size in each slot is a running sum.
    span = len(k_window)
    last = next_arrival + int(arrival[next_arrival:].searchsorted(t + span))
    window = np.arange(next_arrival, last)
    joining = window[need[next_arrival:last] > 0]
    charged = np.concatenate((deficit, joining))
    starts = np.concatenate((np.zeros(len(deficit), np.int64), arrival[joining] - t))
    full = starts + need[charged]
    sizes = np.bincount(starts, minlength=span)
    sizes -= np.bincount(np.minimum(full, span), minlength=span + 1)[:span]
    sizes = sizes.cumsum()
    over = sizes > k_window
    if over.any():
        span = int(over.argmax())
    end = t + span

    # A vehicle leaves at the later of its expected departure and the
    # boundary at which its need is met. Those that can leave by `end`:
    # the vehicles due at a boundary up to it, plugged or arriving in the
    # stretch, and the deficit vehicles already past their departure.
    order, boundaries = fleet.departure_order, fleet.departure_boundaries
    leaving = np.concatenate((np.array(order[due:bisect_right(boundaries, end, due)], dtype=np.int64),
                              deficit[departure[deficit] <= t]))
    leave_at = np.maximum(departure[leaving], np.maximum(arrival[leaving], t) + need[leaving])
    read = (first_read <= leaving) & (leaving < stop)
    read_at = leave_at[read & (leave_at <= end)]
    if len(read_at) == remaining:
        end = int(read_at.max())
        span = end - t
    gone = leave_at <= end
    leaving, leave_at = leaving[gone], leave_at[gone]

    picks = int(sizes[:span].sum())
    need[charged] = np.maximum(full - span, 0) - np.maximum(starts - span, 0)
    met = full <= span
    for rank, boundary in zip(charged[met].tolist(), (full[met] + t).tolist()):
        satisfied_slot[rank] = boundary
    for rank, boundary in zip(leaving.tolist(), leave_at.tolist()):
        left_at[rank] = boundary
    spare[leaving] = 0  # a vehicle that left takes no more charge
    arrived = next_arrival + int(arrival[next_arrival:last].searchsorted(end))
    # The tier's vehicles in list order, then its arrivals in rank order, still short.
    state.deficit = charged[(charged < arrived) & (need[charged] > 0)]
    due = bisect_right(boundaries, end, due)
    return end, arrived, due, len(leaving), int(np.count_nonzero(read & gone)), picks


def _check_departures(ids, need, departure, satisfied_slot, left_at) -> None:
    """Each vehicle given, all of which left, had its need met and left at
    max(expected departure, satisfied slot)."""
    if np.count_nonzero(need):
        rank = need.argmax()
        raise SimulationInvariantError(
            f"vehicle {ids[rank]} departed {need[rank]} intervals short")
    wrong = left_at != np.maximum(satisfied_slot, departure)
    if np.count_nonzero(wrong):
        rank = wrong.argmax()
        raise SimulationInvariantError(
            f"vehicle {ids[rank]} departed at {left_at[rank]}, not "
            f"{max(satisfied_slot[rank], departure[rank])}")
