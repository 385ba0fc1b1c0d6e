"""The engine against the reference loop on small random fleets.

Every policy variant runs with trace on; outcomes and trace rows (order
included) must equal the reference's, the trace auditor must report
nothing, and each vehicle must be charged exactly its initial need
before it is satisfied, and never more often than its battery has room
for. The run's statistics must agree too: as many selections as
selected trace rows, and as many slots as the reference runs, so that
slots the engine skips are still counted, and never more than the drain
bound at which the engine gives up. A second run of each example is
stopped at a drawn range of ranks: it must return the reference's rows
of that range and end at the boundary where the last of them leaves.
A third, untraced run must return the same outcomes; it serves no
top-off tier, so a tiered policy makes only the traced run's deficit
picks. The test is parametrized by variant so that shrinking a failure
re-runs one engine and the reference, not eight.
"""

import csv
import os
import tempfile
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridshare.engine import Outcomes, RunStats, run_simulation
from gridshare.oracle import audit_trace, read_trace
from gridshare.policies import POLICY_NAMES, intervals_for_deficit, parse_policy
from gridshare.powergrid import ChargerSpec
from gridshare.workload import Fleet, Vehicle

from reference_loop import reference_run

VARIANTS = [parse_policy(name) for name in POLICY_NAMES]


# One vehicle: arrival, battery capacity, required charge, charge on
# arrival as a kind and a level, and stay. The required charge and the
# level are reduced modulo their ranges, which depend on the capacity and
# the kind: most vehicles arrive short of their need (kind 0: level up to
# the requirement), some satisfied (kind 1: up to the capacity), some
# full (kind 2).
VEHICLE = st.tuples(
    st.integers(min_value=0, max_value=12), st.integers(min_value=1, max_value=12),
    st.integers(min_value=0, max_value=12), st.integers(min_value=0, max_value=2),
    st.integers(min_value=0, max_value=12), st.integers(min_value=1, max_value=20),
)


@st.composite
def scenarios(draw):
    n = draw(st.integers(min_value=1, max_value=30))
    drawn = draw(st.lists(VEHICLE, min_size=n, max_size=n))
    ids = draw(st.permutations(range(n)))
    unit = draw(st.sampled_from([1.0, 0.5]))  # integer or half-integer miles
    fleet = []
    for vid, (arrival, capacity, required, kind, level, stay) in zip(ids, drawn):
        required %= capacity + 1
        current = capacity if kind == 2 else level % ((required, capacity)[kind] + 1)
        fleet.append(Vehicle(
            id=vid, arrival_slot=arrival, expected_departure_slot=arrival + stay,
            required_miles=required * unit, current_miles=current * unit,
            battery_capacity_miles=capacity * unit,
        ))
    k_profile = draw(st.lists(st.integers(min_value=0, max_value=2), min_size=1, max_size=4))
    if not any(k_profile):
        k_profile[-1] = 1
    rate = draw(st.sampled_from([1.0, 0.5]))
    return fleet, k_profile, rate


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return [[int(x) for x in row] for row in list(csv.reader(fh))[1:]]


@pytest.mark.parametrize("policy", VARIANTS, ids=lambda policy: policy.name)
@settings(max_examples=100, deadline=None)
@given(scenario=scenarios(), data=st.data())
def test_engine_matches_reference_loop(policy, scenario, data):
    fleet, k_profile, rate = scenario
    charger = ChargerSpec(miles_per_slot=rate)
    need = {v.id: intervals_for_deficit(v.required_miles, v.current_miles, rate) for v in fleet}
    with tempfile.TemporaryDirectory() as tmp:
        trace_path = os.path.join(tmp, "trace.csv")
        stats = RunStats()
        hand_built = Fleet.from_vehicles(fleet, charger)
        outcomes = run_simulation(policy, hand_built, k_profile, trace_path=trace_path, stats=stats)
        rows = read_rows(trace_path)
        want_outcomes, want_rows, want_slots = reference_run(policy, fleet, k_profile, rate)
        assert outcomes == want_outcomes
        assert rows == want_rows
        assert stats.total_selections == sum(row[8] for row in rows)
        assert stats.slots_run == want_slots
        # The engine's drain bound: the last expected departure plus one
        # capacity cycle per interval of total need.
        last_departure = max(v.expected_departure_slot for v in fleet)
        assert stats.slots_run <= last_departure + len(k_profile) * sum(need.values())
        assert audit_trace(read_trace(trace_path), policy) == []
        satisfied = dict(zip(outcomes.id.tolist(), outcomes.satisfied_slot.tolist()))
        charges = Counter(row[2] for row in rows if row[8] and row[0] < satisfied[row[2]])
        assert {vid: charges[vid] for vid in need} == need
        # No overfill: a vehicle is selected at most as often as its
        # battery has room, counted from the fleet, not the engine's state.
        picks = Counter(row[2] for row in rows if row[8])
        room = dict(zip(hand_built.id.tolist(), hand_built.room.tolist()))
        assert all(picks[vid] <= room[vid] for vid in picks)

    # Untraced, a tiered policy serves no top-off tier: the same outcomes
    # from its deficit picks alone. A simple variant's one list, all of
    # it tier 1, still takes satisfied vehicles: it makes every traced pick.
    untraced_stats = RunStats()
    assert run_simulation(policy, hand_built, k_profile, stats=untraced_stats) == want_outcomes
    assert untraced_stats.total_selections == sum(row[8] for row in rows if row[3] == 1)
    if not policy.use_distance_info:
        assert untraced_stats.total_selections == stats.total_selections

    # Stopped once the last vehicle of a range has left: the same rows for that range.
    first = data.draw(st.integers(min_value=0, max_value=len(fleet)), label="first rank")
    stop = data.draw(st.integers(min_value=first, max_value=len(fleet)), label="stop rank")
    stopped_stats = RunStats()
    stopped = run_simulation(policy, hand_built, k_profile, ranks=range(first, stop), stats=stopped_stats)
    assert stopped == Outcomes(*(column[first:stop] for column in want_outcomes.columns()))
    assert stopped_stats.slots_run == max(want_outcomes.actual_departure_slot[first:stop], default=0)
