"""Slot loop: charging, departures, measurement window, conservation."""

import numpy as np
import pytest

from gridshare.engine import (
    Outcomes,
    RunStats,
    SimConfig,
    SimulationInvariantError,
    measurement_filter,
    run_simulation,
)
from gridshare.oracle import ORACLE_CHARGER, brute_force_min_max_delay, tiny_instance
from gridshare.policies import parse_policy
from gridshare.units import SLOTS_PER_DAY
from gridshare.workload import Fleet

from conftest import make_test_vehicle, records, scenario


def tiny_cfg(policy_name="minmax-dt", **kw):
    return SimConfig(
        policy=parse_policy(policy_name),
        days=kw.pop("days", 3), warmup_days=kw.pop("warmup_days", 0),
        last_measured_day=kw.pop("last_measured_day", 1), **kw,
    )


def simulate(cfg, vehicles, k_profile, **kw):
    """One record per vehicle, in arrival order, of a run over hand-built vehicles."""
    return records(run_simulation(cfg, Fleet.from_vehicles(vehicles, ORACLE_CHARGER), k_profile, **kw))


def run_tiny(vehicles, k_profile, policy="minmax-dt", **kw):
    return simulate(tiny_cfg(policy, **kw), vehicles, k_profile)


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
    assert all(not o.delayed for o in outcomes)


def test_repeat_runs_identical():
    vehicles = [
        make_test_vehicle(i, i, 10 + 2 * i, required=6.0, current=0.0) for i in range(6)
    ]
    first = run_tiny(vehicles, [1, 2, 0], policy="fcfs")
    second = run_tiny(vehicles, [1, 2, 0], policy="fcfs")
    assert first == second


def test_input_fleet_not_mutated():
    fleet = Fleet.from_vehicles([make_test_vehicle(0, 0, 5, required=3.0, current=0.0)], ORACLE_CHARGER)
    first = records(run_simulation(tiny_cfg(), fleet, [1]))
    assert fleet.need.tolist() == [3] and fleet.room.tolist() == [3]
    assert records(run_simulation(tiny_cfg(), fleet, [1])) == first


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
            outcomes = simulate(tiny_cfg(policy), vehicles, [2, 1, 0], trace_path=trace)
            runs.append((outcomes, trace.read_bytes()))
        assert runs[0] == runs[1]
        assert [o.id for o in runs[0][0]] == [v.id for v in ordered]


# --- departure semantics -----------------------------------------------------


def test_vehicle_satisfied_at_arrival_departs_on_time():
    v = make_test_vehicle(0, 2, 9, required=5.0, current=5.0, capacity=10.0)
    (outcome,) = run_tiny([v], [0])  # no capacity at all
    assert outcome.satisfied_slot == 2
    assert outcome.actual_departure_slot == 9
    assert outcome.delay_slots == 0 and not outcome.delayed


def test_fleet_that_needs_charge_without_any_capacity_is_refused(tmp_path):
    v = make_test_vehicle(0, 2, 9, required=5.0, current=0.0, capacity=10.0)
    trace = tmp_path / "trace.csv"
    with pytest.raises(ValueError, match="no charger slot"):
        simulate(tiny_cfg(), [v], [0, 0, 0], trace_path=trace)
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


def test_full_battery_vehicle_stops_charging_but_waits_for_departure():
    a = make_test_vehicle(1, 0, 30, required=2.0, current=0.0, capacity=4.0)
    b = make_test_vehicle(2, 0, 30, required=25.0, current=0.0, capacity=40.0)
    outcomes = run_tiny([a, b], [2], policy="fcfs")
    by_id = {o.id: o for o in outcomes}
    # a tops off to its 4-mile cap, then all capacity goes to b.
    assert by_id[1].satisfied_slot == 2
    assert by_id[1].actual_departure_slot == 30
    assert by_id[2].satisfied_slot == 25
    assert by_id[2].delayed is False


def test_extension_runs_past_horizon_with_periodic_capacity():
    cfg = tiny_cfg("fcfs", days=3, warmup_days=0, last_measured_day=1)
    late_arrival = SLOTS_PER_DAY * 3 - 2
    v = make_test_vehicle(0, late_arrival, late_arrival + 4, required=30.0, current=0.0)
    (outcome,) = simulate(cfg, [v], [1])
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
    cfg = SimConfig(policy=parse_policy("fcfs-simple"), days=3, warmup_days=0, last_measured_day=1)
    stats = RunStats()
    outcomes = simulate(cfg, vehicles, [1], stats=stats)
    assert [o.actual_departure_slot for o in outcomes] == [50, 55]
    assert stats.slots_run == 55


# --- invariants --------------------------------------------------------------


def test_invariant_checks_catch_corrupted_policy(monkeypatch, unit_charger):
    import gridshare.engine as engine_mod

    real_select = engine_mod.select

    def lazy_select(policy, state, t, k):
        picked = real_select(policy, state, t, k)
        return picked[:-1] if len(picked) > 1 else picked  # drop one: not work conserving

    monkeypatch.setattr(engine_mod, "select", lazy_select)
    vehicles = [make_test_vehicle(i, 0, 30, required=10.0) for i in range(3)]
    with pytest.raises(SimulationInvariantError, match="selected"):
        run_tiny(vehicles, [2], policy="fcfs")


def test_invariant_checks_catch_charging_a_full_battery(monkeypatch):
    import gridshare.engine as engine_mod

    def select_full(policy, state, t, k):
        return [0]  # rank 0 arrived full, so it is in neither tier

    monkeypatch.setattr(engine_mod, "select", select_full)
    vehicles = [
        make_test_vehicle(1, 0, 30, required=2.0, current=4.0, capacity=4.0),
        make_test_vehicle(2, 0, 30, required=10.0),
    ]
    with pytest.raises(SimulationInvariantError, match="full battery"):
        run_tiny(vehicles, [1], policy="fcfs")


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
            assert o.delayed == (o.delay_slots > 0)


def test_stats_collect_slots_and_selections():
    vehicles = [make_test_vehicle(i, 0, 600, required=100.0, capacity=200.0) for i in range(3)]
    cfg = tiny_cfg("rr")
    stats = RunStats()
    simulate(cfg, vehicles, [1], stats=stats)
    assert stats.total_selections > 0
    assert stats.slots_run >= 600


# --- measurement window ------------------------------------------------------


def on_time_outcomes(arrival_days, cfg):
    """Outcomes of on-time vehicles (id = zero-based arrival day), flagged the way the engine flags them under cfg's window."""
    arrival = np.array([day * SLOTS_PER_DAY + 100 for day in arrival_days])
    on_time = np.zeros(len(arrival), dtype=np.int64)
    measured = np.array([slot in cfg.measured_slots for slot in arrival.tolist()], dtype=bool)
    return Outcomes(np.array(arrival_days), arrival, arrival + 10, arrival, arrival + 10,
                    on_time, on_time.astype(bool), measured)


def default_window_cfg():
    """The command line's default horizon and measurement window."""
    base = scenario().base
    return SimConfig(policy=parse_policy("fcfs"), days=base.workload.days,
                     warmup_days=base.warmup_days, last_measured_day=base.last_measured_day)


def test_measurement_window_boundaries():
    cfg = default_window_cfg()
    # One-based days 4, 5, 13, 14 are zero-based 3, 4, 12, 13.
    kept = measurement_filter(on_time_outcomes([3, 4, 12, 13], cfg))
    assert kept.id.tolist() == [4, 12]


def test_measurement_window_slot_bounds():
    cfg = default_window_cfg()  # zero-based days 4 to 12
    assert cfg.measured_slots == range(1152, 3744)
    assert [s in cfg.measured_slots for s in (1151, 1152, 3743, 3744)] == [False, True, True, False]


def test_measurement_window_empty_is_an_error():
    cfg = default_window_cfg()
    with pytest.raises(ValueError, match="measurement window empty"):
        measurement_filter(on_time_outcomes([0], cfg))


def test_engine_measured_flag_agrees_with_filter():
    cfg = SimConfig(policy=parse_policy("fcfs"), days=6, warmup_days=1, last_measured_day=3)
    vehicles = [
        make_test_vehicle(d, d * SLOTS_PER_DAY + 8, d * SLOTS_PER_DAY + 48, required=4.0)
        for d in range(5)
    ]
    outcomes = run_simulation(cfg, Fleet.from_vehicles(vehicles, ORACLE_CHARGER), [3])
    flagged = {o.id for o in records(outcomes) if o.measured}
    filtered = set(measurement_filter(outcomes).id.tolist())
    assert flagged == filtered == {1, 2}


def test_sim_config_window_validation():
    with pytest.raises(ValueError):
        SimConfig(policy=parse_policy("fcfs"), days=10, warmup_days=9, last_measured_day=9)
