"""Uncontended stretches: charged in one step untraced, slot by slot traced.

A run that neither traces nor serves the top-off tier charges each
stretch of slots in which K covers the deficit tier in one step (see
`gridshare.engine`). Each test runs a fleet both ways: with a trace
sink, which takes the per-slot path, and without. The two runs must
agree in outcomes, in slots run and in deficit picks (the traced run's
tier-1 selected rows). Each select call of the untraced run must find
the deficit tier, order and needs included, that the traced run's call
at the same slot found, and the untraced run calls select at exactly
the traced slots whose deficit tier outgrows K.
"""

import pytest

import gridshare.engine as engine_mod
from gridshare.engine import RunStats, SimulationInvariantError, run_simulation
from gridshare.metrics import _seed_work
from gridshare.oracle import ORACLE_CHARGER
from gridshare.policies import ALL_POLICY_NAMES, parse_policy
from gridshare.powergrid import day_capacity_profile, make_grid
from gridshare.units import SLOTS_PER_DAY
from gridshare.workload import Fleet

from conftest import make_test_vehicle, scenario


@pytest.fixture
def recorder(monkeypatch):
    """Records each select call as (slot, deficit ranks, their needs, picks, K)
    and each stretch as (first slot, end boundary)."""
    calls, stretches = [], []
    real_select, real_stretch = engine_mod.select, engine_mod._charge_stretch

    def recorded_select(policy, state, t, k):
        deficit = state.deficit.tolist()
        picked = real_select(policy, state, t, k)
        calls.append((t, deficit, state.need[deficit].tolist(), len(picked), k))
        return picked

    def recorded_stretch(state, fleet, t, *args):
        done = real_stretch(state, fleet, t, *args)
        stretches.append((t, done[0]))
        return done

    monkeypatch.setattr(engine_mod, "select", recorded_select)
    monkeypatch.setattr(engine_mod, "_charge_stretch", recorded_stretch)
    return calls, stretches


def run_both_ways(recorder, policy, fleet, k_profile, ranks=None):
    """The untraced run's outcomes, select calls and stretches, once it
    has matched the traced run."""
    calls, stretches = recorder
    groups, traced_stats = [], RunStats()
    traced = run_simulation(policy, fleet, k_profile, ranks=ranks, trace_sink=groups.append,
                            stats=traced_stats)
    traced_calls = calls.copy()
    assert not stretches
    calls.clear()
    stats = RunStats()
    untraced = run_simulation(policy, fleet, k_profile, ranks=ranks, stats=stats)
    assert untraced == traced
    assert stats.slots_run == traced_stats.slots_run
    assert stats.total_selections == sum(
        row.selected for _, _, rows in groups for row in rows if row.tier == 1)
    found = {t: (deficit, needs) for t, deficit, needs, *_ in traced_calls}
    assert all(found[t] == (deficit, needs) for t, deficit, needs, *_ in calls)
    # The untraced run consults select at exactly the traced slots whose
    # deficit tier outgrows K.
    assert [t for t, *_ in calls] == [t for t, deficit, _, _, k in traced_calls if len(deficit) > k]
    return untraced, stats, calls.copy(), stretches.copy()


@pytest.fixture(scope="module")
def generated():
    """A small generated four-day fleet and its calibration inputs."""
    base = scenario(days=4, arrivals_per_day=80).base
    fleet, tpr = _seed_work(base, 3, {})
    return base, fleet, tpr


@pytest.mark.parametrize("sdr", [1.0, 1.05, 1.2, 2.0])
@pytest.mark.parametrize("name", ALL_POLICY_NAMES)
def test_untraced_generated_fleet_runs_like_the_traced_one(recorder, generated, name, sdr):
    base, fleet, tpr = generated
    k_profile = day_capacity_profile(make_grid(base.shape, tpr, sdr, base.peak_other_fraction),
                                     base.charger)
    for ranks in (None, base.measured_ranks(fleet.arrival_slot)):
        _, stats, calls, stretches = run_both_ways(recorder, parse_policy(name), fleet, k_profile, ranks)
        # Stretches made some of the picks, select the rest.
        assert stretches
        assert sum(picked for *_, picked, _ in calls) < stats.total_selections
        recorder[0].clear()
        recorder[1].clear()


def hand_built(*vehicles):
    return Fleet.from_vehicles([make_test_vehicle(*v[:3], required=v[3], capacity=v[3] + 5.0)
                                for v in vehicles], ORACLE_CHARGER)


def test_stretch_ends_at_the_first_contended_slot(recorder):
    # (id, arrival, expected departure, need): the second vehicle's arrival
    # at slot 3 makes two deficit vehicles for one charger slot.
    fleet = hand_built((0, 0, 50, 5), (1, 3, 50, 5))
    _, stats, calls, stretches = run_both_ways(recorder, parse_policy("fcfs"), fleet, [1])
    assert stretches == [(0, 3), (5, 50)]
    assert [t for t, *_ in calls] == [3, 4]
    assert stats.slots_run == 50


def test_stretch_ends_where_the_last_vehicle_of_the_range_leaves(recorder):
    # Vehicle 0 leaves at 10 while vehicle 1, its need unmet, stays plugged.
    fleet = hand_built((0, 0, 10, 4), (1, 2, 500, 300), (2, 600, 700, 4))
    outcomes, stats, calls, stretches = run_both_ways(
        recorder, parse_policy("fcfs"), fleet, [2], ranks=range(0, 1))
    assert stretches == [(0, 10)] and not calls
    assert outcomes.actual_departure_slot.tolist() == [10]
    assert stats.slots_run == 10


def test_a_stretch_takes_leavers_due_arriving_and_late(recorder):
    # With K = 1 in slots 0-3 fcfs charges only vehicle 0, which is still
    # short of its need at its expected departure (2). In the stretch from
    # slot 4 it leaves late, at 8; vehicles 2 and 3 leave at their shared
    # boundary, 20; vehicle 4 arrives in the stretch with need 0 and
    # leaves at 15; vehicle 1 leaves last, at 50.
    fleet = hand_built((0, 0, 2, 8), (1, 0, 50, 4), (2, 1, 20, 1), (3, 1, 20, 1), (4, 10, 15, 0))
    assert fleet.departure_order == [0, 4, 2, 3, 1]
    outcomes, stats, calls, stretches = run_both_ways(
        recorder, parse_policy("fcfs"), fleet, [1] * 4 + [5] * (SLOTS_PER_DAY - 4))
    assert stretches == [(4, 50)]
    assert [t for t, *_ in calls] == [0, 1, 2, 3]
    assert outcomes.satisfied_slot.tolist() == [8, 8, 5, 5, 10]
    assert outcomes.actual_departure_slot.tolist() == [8, 50, 20, 20, 15]
    assert stats.slots_run == 50


def test_an_uncontended_span_longer_than_a_window_takes_a_stretch_per_window(recorder):
    fleet = hand_built((0, 0, 800, 700), (1, 5, 850, 1))
    outcomes, stats, _, stretches = run_both_ways(recorder, parse_policy("minmax-dt"), fleet, [2])
    day = SLOTS_PER_DAY
    assert stretches == [(0, day), (day, 2 * day), (2 * day, 850)]
    assert outcomes.satisfied_slot.tolist() == [700, 6]
    assert stats.slots_run == 850


@pytest.mark.parametrize("trace", [False, True])
def test_a_run_that_stretches_to_the_give_up_cap_gives_up_like_the_slot_loop(trace):
    # Charged every slot, the vehicle needs more than the 61 days of the
    # give-up cap: the untraced run stretches window by window up to it.
    fleet = hand_built((0, 0, 10, 20000))
    sink = (lambda group: None) if trace else None
    with pytest.raises(RuntimeError, match=f"simulation did not drain within {61 * SLOTS_PER_DAY} slots$"):
        run_simulation(parse_policy("fcfs"), fleet, [1], trace_sink=sink)


def test_rotation_order_resumes_after_a_stretch(recorder):
    # Three vehicles share two charger slots in slots 0-3, so rr rotates
    # its list; K = 5 in slots 4-7 covers them and the arrival at 6, and
    # the contended slots from 8 on must resume the rotated order.
    fleet = hand_built((0, 0, 100, 8), (1, 0, 100, 8), (2, 0, 100, 8), (3, 6, 100, 6))
    _, _, calls, stretches = run_both_ways(recorder, parse_policy("rr"), fleet, [2] * 4 + [5] * 4)
    assert stretches[0] == (4, 8)
    assert calls[4][:3] == (8, [2, 0, 1, 3], [2, 1, 1, 4])


def test_a_deficit_vehicle_with_no_need_entering_a_stretch_is_caught(monkeypatch):
    real_update = engine_mod.update_membership

    def forgetful_update(state, arrived, satisfied, emptied):
        return real_update(state, arrived, False, emptied)

    monkeypatch.setattr(engine_mod, "update_membership", forgetful_update)
    # Satisfied in the first stretch, still plugged when the window ends at
    # slot 288, and left in the deficit tier for the next stretch.
    fleet = hand_built((0, 0, 300, 1))
    with pytest.raises(SimulationInvariantError,
                       match=f"slot {SLOTS_PER_DAY}: vehicle 0 selected from the deficit tier with no need"):
        run_simulation(parse_policy("fcfs"), fleet, [1])
