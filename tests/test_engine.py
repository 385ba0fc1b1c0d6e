"""Slot loop: charging, departures, giving up, conservation; the window over its outcomes."""

import csv

import numpy as np
import pytest
from hypothesis import given, settings

from gridshare import metrics
from gridshare.engine import RunStats, SimulationInvariantError, run_simulation
from gridshare.oracle import ORACLE_CHARGER, brute_force_min_max_delay, tiny_instance
from gridshare.policies import parse_policy
from gridshare.powergrid import ChargerSpec
from gridshare.units import SLOTS_PER_DAY
from gridshare.workload import Fleet

from conftest import make_test_vehicle, records, scenario
from reference_loop import reference_run
from test_differential import VARIANTS, read_rows, scenarios


def simulate(policy_name, vehicles, k_profile, **kw):
    """One record per vehicle, in arrival order, of a run over hand-built vehicles."""
    fleet = Fleet.from_vehicles(vehicles, ORACLE_CHARGER)
    return records(run_simulation(parse_policy(policy_name), fleet, k_profile, **kw))


def run_tiny(vehicles, k_profile, policy="minmax-dt"):
    return simulate(policy, vehicles, k_profile)


# --- hand-traced example -----------------------------------------------------


def test_two_vehicle_hand_trace_and_optimality():
    # Both arrive at 0 needing 2 intervals; departures at 2 and 3; one
    # charger slot per interval. The later-departing vehicle absorbs the
    # single unavoidable slot of delay.
    vehicles = [
        make_test_vehicle(1, 0, 2, required=2.0, current=0.0),
        make_test_vehicle(2, 0, 3, required=2.0, current=0.0),
    ]
    outcomes = run_tiny(vehicles, [1])
    by_id = {o.id: o for o in outcomes}
    assert by_id[1].actual_departure_slot == 2 and by_id[1].delay_slots == 0
    assert by_id[2].actual_departure_slot == 4 and by_id[2].delay_slots == 1
    assert by_id[2].satisfied_slot == 4

    inst = tiny_instance([(0, 2, 2), (0, 3, 2)], [1])
    assert brute_force_min_max_delay(inst) == 1


def test_unconstrained_capacity_leaves_no_delays():
    vehicles = [
        make_test_vehicle(i, i % 5, i % 5 + 20 + i, required=8.0 + i, current=0.0)
        for i in range(10)
    ]
    outcomes = run_tiny(vehicles, [50], policy="rr")
    assert all(o.delay_slots == 0 for o in outcomes)


def test_repeat_runs_identical():
    vehicles = [
        make_test_vehicle(i, i, 10 + 2 * i, required=6.0, current=0.0) for i in range(6)
    ]
    first = run_tiny(vehicles, [1, 2, 0], policy="fcfs")
    second = run_tiny(vehicles, [1, 2, 0], policy="fcfs")
    assert first == second


def test_input_fleet_not_mutated():
    fleet = Fleet.from_vehicles([make_test_vehicle(0, 0, 5, required=3.0, current=0.0)], ORACLE_CHARGER)
    policy = parse_policy("minmax-dt")
    first = records(run_simulation(policy, fleet, [1]))
    assert fleet.need.tolist() == [3] and fleet.room.tolist() == [3]
    assert records(run_simulation(policy, fleet, [1])) == first


def test_duplicate_vehicle_ids_rejected():
    vehicles = [
        make_test_vehicle(1, 0, 5, required=1.0),
        make_test_vehicle(1, 1, 6, required=1.0),
    ]
    with pytest.raises(ValueError, match="unique"):
        run_tiny(vehicles, [1])


def test_shuffled_fleet_runs_like_the_sorted_one(tmp_path):
    # Ids do not follow arrival order, and several vehicles share an arrival slot.
    ordered = sorted(
        (make_test_vehicle(i, (i * 5) % 7, (i * 5) % 7 + 6 + i % 3, required=3.0 + i % 4,
                           current=float(i % 2), capacity=9.0) for i in range(12)),
        key=lambda v: (v.arrival_slot, v.id))
    shuffled = [ordered[i] for i in np.random.default_rng(4).permutation(len(ordered))]
    assert shuffled != ordered
    for policy in ("fcfs", "rr", "minmax-dt"):
        runs = []
        for name, vehicles in (("sorted", ordered), ("shuffled", shuffled)):
            trace = tmp_path / f"{policy}-{name}.csv"
            outcomes = simulate(policy, vehicles, [2, 1, 0], trace_path=trace)
            runs.append((outcomes, trace.read_bytes()))
        assert runs[0] == runs[1]
        assert [o.id for o in runs[0][0]] == [v.id for v in ordered]


# --- departure semantics -----------------------------------------------------


def test_vehicle_satisfied_at_arrival_departs_on_time():
    v = make_test_vehicle(0, 2, 9, required=5.0, current=5.0, capacity=10.0)
    (outcome,) = run_tiny([v], [0])  # no capacity at all
    assert outcome.satisfied_slot == 2
    assert outcome.actual_departure_slot == 9
    assert outcome.delay_slots == 0


def test_fleet_that_needs_charge_without_any_capacity_is_refused(tmp_path):
    v = make_test_vehicle(0, 2, 9, required=5.0, current=0.0, capacity=10.0)
    trace = tmp_path / "trace.csv"
    with pytest.raises(ValueError, match="no charger slot"):
        simulate("minmax-dt", [v], [0, 0, 0], trace_path=trace)
    assert not trace.exists()  # refused before the loop


def test_no_departure_before_expected_slot_even_if_ready_early():
    v = make_test_vehicle(0, 0, 20, required=3.0, current=0.0, capacity=30.0)
    (outcome,) = run_tiny([v], [1])
    assert outcome.satisfied_slot == 3
    assert outcome.actual_departure_slot == 20


def test_late_vehicle_departs_at_first_satisfied_boundary():
    # One charger slot every third slot: 9 intervals of charge arrive by
    # slot boundary 27 while the vehicle hoped to leave at 10.
    v = make_test_vehicle(0, 0, 10, required=9.0, current=0.0)
    (outcome,) = run_tiny([v], [1, 0, 0])
    assert outcome.satisfied_slot == 25
    assert outcome.actual_departure_slot == 25
    assert outcome.delay_slots == 15


def test_full_battery_vehicle_stops_charging_but_waits_for_departure(tmp_path):
    a = make_test_vehicle(1, 0, 30, required=2.0, current=0.0, capacity=4.0)
    b = make_test_vehicle(2, 0, 30, required=25.0, current=0.0, capacity=40.0)
    trace = tmp_path / "trace.csv"  # a traced run serves the top-off tier
    outcomes = simulate("fcfs", [a, b], [2], trace_path=trace)
    by_id = {o.id: o for o in outcomes}
    # a tops off to its 4-mile cap, then all capacity goes to b.
    assert sum(row[8] for row in read_rows(trace) if row[2] == 1) == 4
    assert by_id[1].satisfied_slot == 2
    assert by_id[1].actual_departure_slot == 30
    assert by_id[2].satisfied_slot == 25
    assert by_id[2].delay_slots == 0


def test_extension_runs_past_horizon_with_periodic_capacity():
    late_arrival = SLOTS_PER_DAY * 3 - 2
    v = make_test_vehicle(0, late_arrival, late_arrival + 4, required=30.0, current=0.0)
    (outcome,) = simulate("fcfs", [v], [1])
    assert outcome.actual_departure_slot == late_arrival + 30
    assert outcome.delay_slots == 26


def test_simple_variant_drains_after_its_last_expected_departure():
    # Without distance information the single list serves the satisfied
    # vehicle 0 (first in line) until it leaves at 50, so vehicle 1's five
    # intervals come after the last expected departure: the run ends at
    # 55, past the last arrival plus the total need, and must not be
    # taken for one that does not drain.
    vehicles = [
        make_test_vehicle(0, 0, 50, required=0.0, capacity=100.0),
        make_test_vehicle(1, 0, 1, required=5.0),
    ]
    stats = RunStats()
    outcomes = simulate("fcfs-simple", vehicles, [1], stats=stats)
    assert [o.actual_departure_slot for o in outcomes] == [50, 55]
    assert stats.slots_run == 55


def waiting_fleets(count, seed):
    """Fleets whose vehicles wait full for many slots: stays far beyond
    their need, and no room above it."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        vehicles = []
        for vid in range(int(rng.integers(1, 9))):
            arrival, need = int(rng.integers(0, 60)), int(rng.integers(0, 4))
            departure = arrival + need + int(rng.integers(10, 80))
            vehicles.append(make_test_vehicle(vid, arrival, departure, required=need))
        yield vehicles, rng.integers(1, 3, size=int(rng.integers(1, 4))).tolist()


@pytest.mark.parametrize("policy", VARIANTS, ids=lambda policy: policy.name)
def test_slots_with_every_plugged_vehicle_waiting_full_are_skipped(policy, monkeypatch, tmp_path):
    import gridshare.engine as engine_mod

    real_update = engine_mod.update_membership
    refreshes = []

    def counted_update(*args):
        refreshes.append(args)
        return real_update(*args)

    monkeypatch.setattr(engine_mod, "update_membership", counted_update)
    trace = tmp_path / "trace.csv"
    for vehicles, k_profile in waiting_fleets(25, seed=16):
        refreshes.clear()
        stats = RunStats()
        outcomes = run_simulation(policy, Fleet.from_vehicles(vehicles, ORACLE_CHARGER), k_profile,
                                  trace_path=trace, stats=stats)
        want_outcomes, want_rows, want_slots = reference_run(policy, vehicles, k_profile, 1.0)
        assert outcomes == want_outcomes
        # Trace rows carry their slot, so equal rows are equal groups: a
        # skipped slot sends none, and the reference writes no row for a
        # slot whose tiers are empty.
        assert read_rows(trace) == want_rows
        assert stats.slots_run == want_slots
        assert len(refreshes) < stats.slots_run


@pytest.mark.parametrize("stay, required, max_slots", [
    # The later vehicle's expected departure, 300 + 70 days, falls on day
    # 71: the day cap is 60 days after it, whatever the first vehicle's
    # day, and comes before the drain bound (one 3-slot cycle per
    # interval of a total need of 6004 intervals).
    pytest.param(70 * SLOTS_PER_DAY, 6000.0, (71 + 61) * SLOTS_PER_DAY, id="day-cap"),
    # Otherwise the drain bound comes first: the last expected departure
    # plus one 3-slot cycle per interval of total need.
    pytest.param(10, 5.0, 300 + 10 + 3 * (4 + 5), id="drain-bound"),
])
def test_run_that_cannot_drain_gives_up(monkeypatch, stay, required, max_slots):
    import gridshare.engine as engine_mod

    real_update = engine_mod.update_membership

    # A plugged vehicle in no tier, whose departure boundary passes while
    # it is short of its need: with neither an arrival nor a departure
    # boundary to skip to, the idle skip stops at the give-up cap.
    def closed_door(state, arrived, satisfied, emptied):
        return real_update(state, (), satisfied, emptied)  # admits no arrival

    monkeypatch.setattr(engine_mod, "update_membership", closed_door)
    vehicles = [
        make_test_vehicle(0, 5, 9, required=4.0),
        make_test_vehicle(1, 300, 300 + stay, required=required),
    ]
    with pytest.raises(RuntimeError, match=f"simulation did not drain within {max_slots} slots$"):
        run_tiny(vehicles, [1, 0, 1])


# --- invariants --------------------------------------------------------------


# Each check holds in a full run and in one stopped once rank 0 has left.
FULL_AND_STOPPED = (None, range(0, 1))


def test_invariant_checks_catch_corrupted_policy(monkeypatch, unit_charger):
    import gridshare.engine as engine_mod

    real_select = engine_mod.select

    def lazy_select(policy, state, t, k):
        picked = real_select(policy, state, t, k)
        return picked[:-1] if len(picked) > 1 else picked  # drop one: not work conserving

    monkeypatch.setattr(engine_mod, "select", lazy_select)
    vehicles = [make_test_vehicle(i, 0, 30, required=10.0) for i in range(3)]
    for ranks in FULL_AND_STOPPED:
        with pytest.raises(SimulationInvariantError, match="selected"):
            simulate("fcfs", vehicles, [2], ranks=ranks)


def test_invariant_checks_catch_charging_a_full_battery(monkeypatch):
    import gridshare.engine as engine_mod

    def select_full(policy, state, t, k):
        return [0]  # rank 0 arrived full, so it is in neither tier

    monkeypatch.setattr(engine_mod, "select", select_full)
    # Two deficit vehicles for one charger slot: slot 0 is contended, so
    # select is consulted there.
    vehicles = [
        make_test_vehicle(1, 0, 30, required=2.0, current=4.0, capacity=4.0),
        make_test_vehicle(2, 0, 30, required=10.0),
        make_test_vehicle(3, 0, 30, required=10.0),
    ]
    for ranks in FULL_AND_STOPPED:
        with pytest.raises(SimulationInvariantError, match="full battery"):
            simulate("fcfs", vehicles, [1], ranks=ranks)


def test_invariant_checks_catch_a_satisfied_vehicle_left_in_the_deficit_tier(monkeypatch):
    import gridshare.engine as engine_mod

    real_update = engine_mod.update_membership

    def forgetful_update(state, arrived, satisfied, emptied):
        # Never told that a need reached 0, so no vehicle moves to top-off.
        return real_update(state, arrived, False, emptied)

    monkeypatch.setattr(engine_mod, "update_membership", forgetful_update)
    # Satisfied after one slot, with room to spare: picked again from the
    # deficit tier at slot 1, which the vehicle of id 2 keeps contended
    # for the one charger slot. The last vehicle arrives after the first
    # has left, so a stopped run never sees it.
    vehicles = [make_test_vehicle(1, 0, 30, required=1.0, capacity=10.0),
                make_test_vehicle(2, 0, 30, required=5.0),
                make_test_vehicle(3, 40, 70, required=1.0)]
    for ranks in FULL_AND_STOPPED:
        with pytest.raises(SimulationInvariantError, match="deficit tier with no need"):
            simulate("fcfs", vehicles, [1], ranks=ranks)


@pytest.mark.parametrize("ranks", [range(0, 3), range(-1, 1), range(2, 1), range(0, 2, 2)])
def test_ranks_outside_the_fleet_are_refused(ranks):
    vehicles = [make_test_vehicle(i, 0, 30, required=1.0) for i in range(2)]
    with pytest.raises(ValueError, match="is not a step-1 range of the fleet's 2 ranks"):
        simulate("fcfs", vehicles, [1], ranks=ranks)


def test_stopped_run_ends_when_its_last_vehicle_leaves():
    # Vehicle 1 is the one still plugged when vehicle 0 leaves at slot 10,
    # its need unmet: no row of it escapes, and no check reads it.
    vehicles = [make_test_vehicle(0, 0, 10, required=4.0), make_test_vehicle(1, 2, 500, required=300.0),
                make_test_vehicle(2, 600, 700, required=4.0)]
    stats = RunStats()
    stopped = simulate("fcfs", vehicles, [1], ranks=range(0, 1), stats=stats)
    assert stopped == simulate("fcfs", vehicles, [1])[:1]
    assert stats.slots_run == 10
    assert simulate("fcfs", vehicles, [1], ranks=range(1, 1), stats=stats) == []
    assert stats.slots_run == 0


@pytest.mark.parametrize("name", ["fcfs", "fcfs-simple"])
@settings(max_examples=50, deadline=None)
@given(scenario=scenarios())
def test_fcfs_deficit_list_stays_in_rank_order(name, scenario):
    # fcfs takes the head of its deficit list as its picks, which holds
    # only while the list is in rank order after every refresh.
    import gridshare.engine as engine_mod

    real_update = engine_mod.update_membership
    refreshes = []

    def checked_update(state, *args):
        real_update(state, *args)
        deficit = state.deficit
        assert np.all(deficit[1:] > deficit[:-1]), deficit
        refreshes.append(len(deficit))
        return state

    fleet, k_profile, rate = scenario
    charger = ChargerSpec(miles_per_slot=rate)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine_mod, "update_membership", checked_update)
        run_simulation(parse_policy(name), Fleet.from_vehicles(fleet, charger), k_profile)
    assert refreshes


def test_outcome_invariants_on_random_scenario():
    vehicles = [
        make_test_vehicle(i, (i * 3) % 7, (i * 3) % 7 + 5 + (i % 4) * 3,
                          required=2.0 + (i % 5), current=float(i % 2), capacity=12.0)
        for i in range(14)
    ]
    for policy in ("fcfs", "fdfs", "rr", "minmax-er", "minmax-dt"):
        outcomes = run_tiny(vehicles, [2, 1, 0, 3], policy=policy)
        assert len(outcomes) == len(vehicles)
        for o in outcomes:
            assert o.delay_slots >= 0
            assert o.actual_departure_slot == max(o.expected_departure_slot, o.satisfied_slot)
            assert o.satisfied_slot >= o.arrival_slot


@pytest.mark.parametrize("policy", [p for p in VARIANTS if p.use_distance_info],
                         ids=lambda policy: policy.name)
def test_untraced_run_hands_select_no_topoff_rank(policy, monkeypatch, tmp_path):
    import gridshare.engine as engine_mod

    real_select = engine_mod.select
    handed = []  # each select call's candidates, as (rank, need) pairs

    def watched_select(policy, state, t, k):
        ranks = np.concatenate((state.deficit, state.topoff))
        handed.append(list(zip(ranks.tolist(), state.need[ranks].tolist())))
        return real_select(policy, state, t, k)

    monkeypatch.setattr(engine_mod, "select", watched_select)
    # Vehicle 1 arrives holding its requirement with room to spare, and
    # vehicle 2 becomes satisfied at slot 5. K alternates 2 and 0, so each
    # slot with K = 0 and a deficit vehicle (1, 3 and 15) is contended,
    # and select is consulted there; K = 2 leaves room for both.
    vehicles = [
        make_test_vehicle(1, 0, 20, required=2.0, current=4.0, capacity=10.0),
        make_test_vehicle(2, 1, 12, required=2.0, capacity=6.0),
        make_test_vehicle(3, 15, 18, required=1.0),
    ]
    fleet = Fleet.from_vehicles(vehicles, ORACLE_CHARGER)
    traced_stats, stats = RunStats(), RunStats()
    traced = run_simulation(policy, fleet, [2, 0], trace_path=tmp_path / "trace.csv", stats=traced_stats)
    traced_calls = handed.copy()
    handed.clear()
    untraced = run_simulation(policy, fleet, [2, 0], stats=stats)
    assert untraced == traced
    assert any(need == 0 for call in traced_calls for _, need in call)  # the traced run tops off
    assert all(need > 0 for call in handed for _, need in call)
    # Three deficit picks, and select only in the three contended slots: the
    # uncontended ones are charged as stretches.
    assert stats.total_selections == 3 < traced_stats.total_selections
    assert len(handed) == 3 < len(traced_calls)
    assert stats.slots_run == traced_stats.slots_run == 20


def test_stats_collect_slots_and_selections():
    vehicles = [make_test_vehicle(i, 0, 600, required=100.0, capacity=200.0) for i in range(3)]
    stats = RunStats()
    simulate("rr", vehicles, [1], stats=stats)
    assert stats.total_selections > 0
    assert stats.slots_run >= 600


# --- the measurement window over the outcome table ---------------------------
# The window is metrics.SweepBase's; the engine's outcomes know nothing of it.


def test_measurement_window_boundaries():
    base = scenario().base  # the command line's default window
    # One-based days 4, 5, 13, 14 are zero-based 3, 4, 12, 13.
    arrival = np.array([day * SLOTS_PER_DAY + 100 for day in (3, 4, 12, 13)])
    assert base.measured_ranks(arrival) == range(1, 3)


def test_measurement_window_slot_bounds():
    base = scenario().base  # zero-based days 4 to 12: slots 1152 to 3743
    assert base.measured_ranks(np.array([1151, 1152, 3743, 3744])) == range(1, 3)
    assert not base.measured_ranks(np.array([0, 1151, 3744, 4000]))
    assert not base.measured_ranks(np.array([], dtype=np.int64))


def test_measurement_window_empty_is_an_error(monkeypatch):
    base = scenario().base
    # Every vehicle arrives on day 0, before the window opens.
    fleet = Fleet.from_vehicles([make_test_vehicle(0, 100, 200, required=20.0)], base.charger)
    monkeypatch.setattr(metrics, "generate_fleet", lambda *args: fleet)
    with pytest.raises(ValueError, match="measurement window empty"):
        metrics.run_cell(base, parse_policy("fcfs"), 300.0, 1)


def test_engine_measured_flag_agrees_with_filter(tmp_path):
    base = scenario(days=6, warmup_days=1, last_measured_day=3).base
    vehicles = [
        make_test_vehicle(d, d * SLOTS_PER_DAY + 8, d * SLOTS_PER_DAY + 48, required=4.0)
        for d in range(5)
    ]
    outcomes = run_simulation(parse_policy("fcfs"), Fleet.from_vehicles(vehicles, ORACLE_CHARGER), [3])
    measured = base.measured_ranks(outcomes.arrival_slot)
    path = tmp_path / "outcomes.csv"
    metrics.write_outcomes_csv(outcomes, measured, path)
    with open(path, newline="") as fh:
        flagged = {int(row["id"]) for row in csv.DictReader(fh) if row["measured"] == "1"}
    assert flagged == set(outcomes.id[measured.start:measured.stop].tolist()) == {1, 2}
