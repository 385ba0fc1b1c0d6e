"""Selection disciplines: priority keys, list maintenance, fairness."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridshare.policies import (
    POLICY_NAMES,
    Policy,
    PolicyKind,
    intervals_for_deficit,
    new_policy_state,
    parse_policy,
    select,
    update_membership,
)
from gridshare.powergrid import CHARGER_PRESETS, charger_preset
from gridshare.workload import Fleet, generate_fleet

from conftest import make_test_vehicle, scenario
from reference_loop import priority_key


def in_arrival_order(vehicles):
    """The vehicles in rank order: by arrival slot, then id."""
    return sorted(vehicles, key=lambda v: (v.arrival_slot, v.id))


def plugged_state(policy, charger, vehicles):
    """Tiers after `vehicles` plug in together, and the fleet whose ranks they hold."""
    fleet = Fleet.from_vehicles(vehicles, charger)
    state = new_policy_state(policy, fleet)
    update_membership(state, range(len(vehicles)), satisfied=False, emptied=False)
    return state, fleet


def ids(fleet, ranks):
    """Vehicle ids of a tier or a selection, in order."""
    return [fleet.id[r] for r in ranks]


def rank(fleet, vid):
    return fleet.id.tolist().index(vid)


def assert_served_in_order(policy, state, fleet, t, order):
    """For every k, select at slot t takes the first k of `order` (ids).

    select's picks come in no particular order, so the order is pinned
    one k at a time, each by the set it picks.
    """
    for k in range(1, len(order) + 1):
        assert set(ids(fleet, select(policy, state, t, k))) == set(order[:k]), f"k={k}"


@pytest.fixture
def state_for(unit_charger):
    def make(policy, vehicles):
        return plugged_state(policy, unit_charger, vehicles)

    return make


# --- interval and delay arithmetic -----------------------------------------


def test_full_battery_from_empty_takes_200_intervals(home_charger):
    v = make_test_vehicle(0, 0, 300, required=100.0, current=0.0, capacity=100.0)
    state = new_policy_state(parse_policy("fcfs"), Fleet.from_vehicles([v], home_charger))
    assert state.need.tolist() == [200]
    assert state.spare.tolist() == [0]


def test_no_intervals_needed_at_required_charge(home_charger):
    v = make_test_vehicle(0, 0, 300, required=50.0, current=50.0, capacity=100.0)
    state = new_policy_state(parse_policy("fcfs"), Fleet.from_vehicles([v], home_charger))
    assert state.need.tolist() == [0]
    assert state.spare.tolist() == [100]


def test_runs_count_down_copies_of_the_fleet_counters(home_charger):
    v = make_test_vehicle(0, 0, 300, required=50.0, current=0.0, capacity=100.0)
    fleet = Fleet.from_vehicles([v], home_charger)
    state = new_policy_state(parse_policy("fcfs"), fleet)
    state.need -= 1
    state.spare -= 1
    assert fleet.need.tolist() == [100] and fleet.room.tolist() == [200]


def test_partial_interval_rounds_up(home_charger):
    assert intervals_for_deficit(30.2, 0.0, home_charger.miles_per_slot) == 61


@pytest.mark.parametrize("charger", [charger_preset(name) for name in CHARGER_PRESETS],
                         ids=lambda c: f"{c.miles_per_slot:.4f}")
def test_interval_counters_replay_float_charging(charger):
    # Outputs stay byte-identical to float-mile charging only if the
    # counters agree with the float step cur = min(cur + rate, cap) at
    # every step, on generated fleets at every preset's rate. NumPy
    # float64 arithmetic is the same IEEE arithmetic as Python floats.
    base = scenario(days=2, warmup_days=0, last_measured_day=1).base
    fleet = generate_fleet(base.workload, base.profile, charger, 1)
    rate = charger.miles_per_slot
    need, room = fleet.need, fleet.room
    required, capacity, cur = fleet.required_miles, fleet.battery_capacity_miles, fleet.initial_miles
    for j in range(room.max() + 1):  # cur holds the charge after j steps
        assert np.array_equal(cur >= required, j >= need)
        assert np.array_equal(cur >= capacity, j >= room)
        deficit = required - cur
        remaining = np.where(deficit > 0.0, np.ceil(deficit / rate), 0.0)
        assert np.array_equal(remaining, np.maximum(need - j, 0))
        cur = np.minimum(cur + rate, capacity)


# --- select examples --------------------------------------------------------


def test_minmax_dt_takes_largest_delays(state_for, unit_charger):
    policy = parse_policy("minmax-dt")
    # Delays if charged continuously at t=10: a:+5, b:0, c:-2.
    a = make_test_vehicle(1, 0, 15, required=10.0, current=0.0)
    b = make_test_vehicle(2, 0, 20, required=10.0, current=0.0)
    c = make_test_vehicle(3, 0, 22, required=10.0, current=0.0)
    state, fleet = state_for(policy, [a, b, c])
    assert_served_in_order(policy, state, fleet, 10, [1, 2, 3])


def test_all_eligible_selected_when_capacity_suffices(state_for):
    for name in ("fcfs", "fdfs", "rr", "minmax-er", "minmax-dt"):
        policy = parse_policy(name)
        vehicles = [make_test_vehicle(i, 0, 50, required=5.0, current=0.0) for i in range(4)]
        state, fleet = state_for(policy, vehicles)
        assert set(ids(fleet, select(policy, state, 0, 10))) == {0, 1, 2, 3}


def test_negative_capacity_rejected(state_for):
    policy = parse_policy("fcfs")
    state, _ = state_for(policy, [])
    with pytest.raises(ValueError, match="negative capacity"):
        select(policy, state, 0, -1)


def test_rr_rotates_selected_to_bottom(state_for):
    policy = parse_policy("rr")
    vehicles = [make_test_vehicle(i, i, 50, required=10.0, current=0.0) for i in (1, 2, 3)]
    state, fleet = state_for(policy, vehicles)
    assert ids(fleet, state.deficit) == [1, 2, 3]
    picked = select(policy, state, 5, 2)
    assert ids(fleet, picked) == [1, 2]
    assert ids(fleet, state.deficit) == [3, 1, 2]


def test_fcfs_orders_by_arrival(state_for):
    policy = parse_policy("fcfs")
    vehicles = [
        make_test_vehicle(5, 30, 300, required=10.0, current=0.0),
        make_test_vehicle(7, 10, 300, required=10.0, current=0.0),
        make_test_vehicle(2, 20, 300, required=10.0, current=0.0),
    ]
    state, fleet = state_for(policy, vehicles)
    assert_served_in_order(policy, state, fleet, 40, [7, 2, 5])


def test_fdfs_prefers_most_delayed_then_earliest_departure(state_for):
    policy = parse_policy("fdfs")
    late_big = make_test_vehicle(1, 0, 8, required=30.0, current=0.0)    # 2 slots late at t=10
    late_small = make_test_vehicle(2, 0, 9, required=30.0, current=0.0)  # 1 slot late
    soon = make_test_vehicle(3, 0, 30, required=30.0, current=0.0)
    later = make_test_vehicle(4, 0, 40, required=30.0, current=0.0)
    state, fleet = state_for(policy, [late_big, late_small, soon, later])
    assert_served_in_order(policy, state, fleet, 10, [1, 2, 3, 4])


def test_fdfs_least_slack_variant_orders_by_slack(state_for):
    policy = parse_policy("fdfs-slack")
    # At t=0: slack(a) = 20-15 = 5, slack(b) = 30-28 = 2: b first despite later departure.
    a = make_test_vehicle(1, 0, 20, required=15.0, current=0.0)
    b = make_test_vehicle(2, 0, 30, required=28.0, current=0.0)
    state, fleet = state_for(policy, [a, b])
    assert_served_in_order(policy, state, fleet, 0, [2, 1])
    # Default reading picks the earlier departure instead.
    default = parse_policy("fdfs")
    state2, fleet2 = state_for(default, [a, b])
    assert_served_in_order(default, state2, fleet2, 0, [1, 2])


def test_minmax_er_takes_largest_remaining_need(state_for):
    policy = parse_policy("minmax-er")
    small = make_test_vehicle(1, 0, 99, required=5.0, current=0.0)
    big = make_test_vehicle(2, 5, 99, required=50.0, current=0.0)
    state, fleet = state_for(policy, [small, big])
    assert_served_in_order(policy, state, fleet, 10, [2, 1])


def test_ties_break_by_arrival_then_id(state_for):
    policy = parse_policy("minmax-er")
    vehicles = [
        make_test_vehicle(9, 4, 99, required=10.0, current=0.0),
        make_test_vehicle(3, 4, 99, required=10.0, current=0.0),
        make_test_vehicle(5, 2, 99, required=10.0, current=0.0),
    ]
    state, fleet = state_for(policy, vehicles)
    assert_served_in_order(policy, state, fleet, 5, [5, 3, 9])


# --- membership maintenance -------------------------------------------------


def test_vehicle_crossing_required_moves_to_topoff_tail(state_for):
    policy = parse_policy("fcfs")
    a = make_test_vehicle(1, 0, 99, required=10.0, current=0.0, capacity=20.0)
    b = make_test_vehicle(2, 1, 99, required=10.0, current=5.0, capacity=20.0)
    old_topoff = make_test_vehicle(3, 2, 99, required=5.0, current=7.0, capacity=20.0)
    state, fleet = state_for(policy, [a, b, old_topoff])
    assert ids(fleet, state.deficit) == [1, 2]
    assert ids(fleet, state.topoff) == [3]
    ra = rank(fleet, 1)
    state.need[ra], state.spare[ra] = 0, 8  # charged to 12 miles: crossed its requirement
    update_membership(state, arrived=(), satisfied=True, emptied=False)
    assert ids(fleet, state.deficit) == [2]
    assert ids(fleet, state.topoff) == [3, 1]


def test_without_topoff_service_a_satisfied_vehicle_joins_no_tier(unit_charger):
    a = make_test_vehicle(1, 0, 99, required=10.0, current=0.0, capacity=20.0)
    b = make_test_vehicle(2, 1, 99, required=10.0, current=5.0, capacity=20.0)
    sated = make_test_vehicle(3, 2, 99, required=5.0, current=7.0, capacity=20.0)
    fleet = Fleet.from_vehicles([a, b, sated], unit_charger)
    state = new_policy_state(parse_policy("fcfs"), fleet, serve_topoff=False)
    update_membership(state, range(3), satisfied=False, emptied=False)
    assert ids(fleet, state.deficit) == [1, 2]
    assert not len(state.topoff)
    state.need[rank(fleet, 1)] = 0  # crossed its requirement
    update_membership(state, arrived=(), satisfied=True, emptied=False)
    assert ids(fleet, state.deficit) == [2]
    assert not len(state.topoff)


def test_full_battery_vehicle_leaves_both_lists(state_for):
    policy = parse_policy("fcfs")
    v = make_test_vehicle(1, 0, 99, required=10.0, current=0.0, capacity=12.0)
    state, fleet = state_for(policy, [v])
    assert ids(fleet, state.deficit) == [1]
    state.need[0], state.spare[0] = 0, 0  # charged to its 12-mile capacity
    update_membership(state, arrived=(), satisfied=True, emptied=True)
    assert not len(state.deficit) and not len(state.topoff)


def test_departed_vehicle_dropped(state_for):
    policy = parse_policy("rr")
    vehicles = [make_test_vehicle(i, 0, 99, required=10.0, current=0.0) for i in (1, 2)]
    state, fleet = state_for(policy, vehicles)
    # It left as its last interval came in; the engine empties a leaver's spare.
    state.need[rank(fleet, 1)] = state.spare[rank(fleet, 1)] = 0
    update_membership(state, arrived=(), satisfied=True, emptied=True)
    assert ids(fleet, state.deficit) == [2]


def test_simple_variant_keeps_single_list(unit_charger):
    policy = parse_policy("fcfs-simple")
    satisfied = make_test_vehicle(1, 0, 99, required=5.0, current=8.0, capacity=20.0)
    needy = make_test_vehicle(2, 0, 99, required=15.0, current=0.0, capacity=20.0)
    state, fleet = plugged_state(policy, unit_charger, [satisfied, needy])
    assert ids(fleet, state.deficit) == [1, 2]
    assert not len(state.topoff)


def test_simple_variant_refused_for_distance_policies():
    for kind in (PolicyKind.FDFS, PolicyKind.MINMAX_ER, PolicyKind.MINMAX_DT):
        with pytest.raises(ValueError, match="driving-distance"):
            Policy(kind, use_distance_info=False)


def test_least_slack_refused_for_kinds_but_fdfs():
    for kind in (PolicyKind.FCFS, PolicyKind.RR, PolicyKind.MINMAX_ER, PolicyKind.MINMAX_DT):
        with pytest.raises(ValueError, match="tie rule of fdfs"):
            Policy(kind, fdfs_least_slack=True)


@pytest.mark.parametrize("name", POLICY_NAMES)
def test_policy_name_round_trips(name):
    assert parse_policy(name).name == name


def test_each_policy_name_is_a_distinct_policy():
    assert len({parse_policy(name) for name in POLICY_NAMES}) == len(POLICY_NAMES) == 8


def test_unknown_policy_name():
    with pytest.raises(ValueError, match="unknown policy"):
        parse_policy("lifo")


@pytest.mark.parametrize("name", ["minmax-dt-slack", "fcfs-slack", "minmax-er-simple"])
def test_variant_names_without_a_behaviour_are_refused(name):
    # Each would be a second name of a paper policy, or a refused Policy.
    with pytest.raises(ValueError, match="unknown policy .*fcfs-simple, rr-simple, fdfs-slack"):
        parse_policy(name)


# --- properties --------------------------------------------------------------


@st.composite
def random_scenario(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    vehicles = []
    for i in range(n):
        arrival = draw(st.integers(min_value=0, max_value=20))
        required = draw(st.integers(min_value=1, max_value=30))
        current = draw(st.integers(min_value=0, max_value=required))
        capacity = required + draw(st.integers(min_value=0, max_value=10))
        if current >= capacity:  # keep them eligible (not full)
            capacity = current + 1
        departure = arrival + draw(st.integers(min_value=1, max_value=40))
        vehicles.append(
            make_test_vehicle(i, arrival, departure, required=required,
                              current=current, capacity=capacity)
        )
    k = draw(st.integers(min_value=0, max_value=15))
    t = draw(st.integers(min_value=20, max_value=40))
    return vehicles, k, t


@settings(max_examples=60, deadline=None)
@given(random_scenario(), st.sampled_from(["fcfs", "fdfs", "rr", "minmax-er", "minmax-dt"]))
def test_selection_cardinality_property(scenario, name):
    from gridshare.powergrid import ChargerSpec

    charger = ChargerSpec(miles_per_slot=1.0)
    vehicles, k, t = scenario
    policy = parse_policy(name)
    state, _ = plugged_state(policy, charger, vehicles)
    eligible = len(state.deficit) + len(state.topoff)
    picked = select(policy, state, t, k)
    assert len(picked) == min(k, eligible)
    assert len(set(picked)) == len(picked)


@settings(max_examples=60, deadline=None)
@given(random_scenario(), st.sampled_from(["fcfs", "fdfs", "minmax-er", "minmax-dt"]))
def test_top_k_property_for_sorted_policies(scenario, name):
    from gridshare.powergrid import ChargerSpec

    charger = ChargerSpec(miles_per_slot=1.0)
    vehicles, k, t = scenario
    policy = parse_policy(name)
    state, _ = plugged_state(policy, charger, vehicles)
    plugged = in_arrival_order(vehicles)
    picked = set(select(policy, state, t, k))

    def key(v):
        return priority_key(policy, t, v, charger.miles_per_slot)

    for tier in (state.deficit, state.topoff):
        chosen = [r for r in tier if r in picked]
        passed = [r for r in tier if r not in picked]
        if chosen and passed:
            worst_chosen = max(key(plugged[r]) for r in chosen)
            best_passed = min(key(plugged[r]) for r in passed)
            assert worst_chosen < best_passed
    # Tier ordering: top-off charged only when every deficit vehicle was.
    if any(v in picked for v in state.topoff):
        assert all(v in picked for v in state.deficit)


def keyed_vehicles(rng, n, satisfied_share):
    """n plugged vehicles with few distinct counters, so many keys tie
    on their primary; about satisfied_share of them start in the top-off
    tier, and none is full. Ids are unique and not in arrival order."""
    vehicles = []
    for vid in rng.permutation(3 * n)[:n].tolist():
        arrival = int(rng.integers(0, 6))
        current = int(rng.integers(0, 5))
        need = 0 if rng.random() < satisfied_share else int(rng.integers(1, 8))
        capacity = current + need + int(rng.integers(1, 4))
        departure = arrival + int(rng.integers(1, 30))
        vehicles.append(make_test_vehicle(vid, arrival, departure, required=current + need,
                                          current=current, capacity=capacity))
    return vehicles


# For up to 256 int64 rows numpy 2.4's partition returns the first k
# sorted, and above that in general unsorted; the sizes also straddle
# powers of two, where the number of rank bits in a packed key changes.
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 255, 256, 257, 511, 512, 513])
@pytest.mark.parametrize("name", ["fdfs", "fdfs-slack", "minmax-er", "minmax-dt"])
def test_select_takes_the_top_k_set_of_each_tier(name, n, unit_charger):
    policy = parse_policy(name)
    rng = np.random.default_rng(n)
    t = 15  # departures fall in slots 1..35, so some vehicles are late
    largest_tier = late = 0
    for satisfied_share in (0.0, 0.1, 0.5, 0.9, 1.0):
        vehicles = keyed_vehicles(rng, n, satisfied_share)
        state, _ = plugged_state(policy, unit_charger, vehicles)
        plugged = in_arrival_order(vehicles)
        tiers = [state.deficit.tolist(), state.topoff.tolist()]
        keys = {r: priority_key(policy, t, v, 1.0) for r, v in enumerate(plugged)}
        ranked = [sorted(tier, key=keys.get) for tier in tiers]
        largest_tier = max(largest_tier, *map(len, tiers))
        # Cuts at the late vehicles of each tier: fdfs-slack serves them first.
        late_counts = [sum(plugged[r].expected_departure_slot <= t for r in tier) for tier in tiers]
        late += sum(late_counts)
        cuts = {1, 2, len(tiers[0]) - 1, len(tiers[0]), len(tiers[0]) + 1,
                len(tiers[0]) + len(tiers[1]) // 2, n - 1, n, int(rng.integers(0, n + 1))}
        for late_count in (late_counts[0], len(tiers[0]) + late_counts[1]):
            cuts.update((late_count - 1, late_count, late_count + 1))
        for K in sorted(cuts):
            if K < 0:
                continue
            picked = select(policy, state, t, K).tolist()
            k1 = min(K, len(tiers[0]))
            k2 = min(K - k1, len(tiers[1]))
            assert len(picked) == k1 + k2
            assert set(picked[:k1]) == set(ranked[0][:k1]), f"deficit tier, K={K}"
            assert set(picked[k1:]) == set(ranked[1][:k2]), f"top-off tier, K={K}"
    assert largest_tier == n and (late or n < 5)


@settings(max_examples=60, deadline=None)
@given(random_scenario())
def test_minmax_dt_dominance_property(scenario):
    from gridshare.powergrid import ChargerSpec

    charger = ChargerSpec(miles_per_slot=1.0)
    vehicles, k, t = scenario
    policy = parse_policy("minmax-dt")
    state, _ = plugged_state(policy, charger, vehicles)
    plugged = in_arrival_order(vehicles)
    picked = set(select(policy, state, t, k))
    deficit = list(state.deficit)
    chosen = [r for r in deficit if r in picked]
    passed = [r for r in deficit if r not in picked]

    def delay_if_continuous(r):
        return state.need[r] - (plugged[r].expected_departure_slot - t)

    if chosen and passed:
        min_chosen = min(delay_if_continuous(r) for r in chosen)
        max_passed = max(delay_if_continuous(r) for r in passed)
        assert max_passed <= min_chosen


def test_rr_fairness_over_static_window(unit_charger):
    policy = parse_policy("rr")
    vehicles = [make_test_vehicle(i, 0, 10_000, required=5000.0, current=0.0) for i in range(7)]
    state, fleet = plugged_state(policy, unit_charger, vehicles)
    counts = {v.id: 0 for v in vehicles}
    k = 3
    picked = []
    for t in range(70):
        update_membership(state, arrived=(), satisfied=False, emptied=False)
        picked = select(policy, state, t, k)
        for vid in ids(fleet, picked):
            counts[vid] += 1
    assert max(counts.values()) - min(counts.values()) <= 1
    assert sum(counts.values()) == 70 * k


def test_non_rotation_select_is_pure(state_for):
    policy = parse_policy("minmax-dt")
    state, _ = state_for(policy, [make_test_vehicle(i, i, 60, required=10.0 + i, current=0.0)
                               for i in range(5)])
    before = (state.deficit.copy(), state.topoff.copy())
    first = select(policy, state, 10, 2)
    second = select(policy, state, 10, 2)
    assert first.tolist() == second.tolist()
    assert (list(state.deficit), list(state.topoff)) == (list(before[0]), list(before[1]))
    assert all(np.array_equal(now, then) for now, then in zip((state.deficit, state.topoff), before))
