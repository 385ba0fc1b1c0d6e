"""A readable reference slot loop: rescans every list every slot, tuple keys.

It states the selection rules directly, with none of the production
engine's array bookkeeping, so the differential test can hold the engine
to it. Returns the run's outcomes as an `engine.Outcomes` table (one row
per vehicle in arrival order), its trace rows (as ints, in file order,
without the header) and the number of slots run, which ends at the last
departure boundary.
"""

from dataclasses import replace

import numpy as np

from gridshare.engine import Outcomes
from gridshare.policies import PolicyKind, intervals_for_deficit


def priority_key(policy, t, v, rate):
    """Smaller is served earlier; ties break by arrival slot, then id."""
    needed = intervals_for_deficit(v.required_miles, v.current_miles, rate)
    t_l, kind = v.expected_departure_slot, policy.kind
    if kind in (PolicyKind.FCFS, PolicyKind.RR):
        return (v.arrival_slot, v.id)
    if kind is PolicyKind.FDFS and not policy.fdfs_least_slack:
        return (t_l, v.arrival_slot, v.id)
    if kind is PolicyKind.FDFS:
        late = (0, t_l) if t >= t_l else (1, (t_l - t) - needed)
        return late + (v.arrival_slot, v.id)
    if kind is PolicyKind.MINMAX_ER:
        return (-needed, v.arrival_slot, v.id)
    return (t_l - needed, v.arrival_slot, v.id)


def reference_run(policy, fleet, k_profile, rate):
    informed = policy.use_distance_info
    waiting = sorted((replace(v) for v in fleet), key=lambda v: (v.arrival_slot, v.id))
    order = [v.id for v in waiting]
    plugged, deficit, topoff = {}, [], []
    satisfied, outcomes, rows = {}, {}, []
    t = 0
    while waiting or plugged:
        while waiting and waiting[0].arrival_slot == t:
            v = waiting.pop(0)
            plugged[v.id] = v
            if v.current_miles >= v.required_miles:
                satisfied[v.id] = t
        live = {vid: v for vid, v in plugged.items() if v.current_miles < v.battery_capacity_miles}
        movers = [i for i in deficit if i in live and informed and live[i].current_miles >= live[i].required_miles]
        deficit = [i for i in deficit if i in live and i not in movers]
        topoff = [i for i in topoff if i in live] + movers
        for vid, v in live.items():
            if vid not in deficit and vid not in topoff:
                sated = informed and v.current_miles >= v.required_miles
                (topoff if sated else deficit).append(vid)

        k = k_profile[t % len(k_profile)]
        k1 = min(k, len(deficit))
        k2 = min(k - k1, len(topoff))
        if policy.kind is PolicyKind.RR:
            picked = deficit[:k1] + topoff[:k2]
            deficit = deficit[k1:] + deficit[:k1]
            topoff = topoff[k2:] + topoff[:k2]
        else:
            def key(i):
                return priority_key(policy, t, live[i], rate)
            picked = sorted(deficit, key=key)[:k1] + sorted(topoff, key=key)[:k2]
        for tier, ids in ((1, deficit), (2, topoff)):
            for i in ids:
                v = live[i]
                needed = intervals_for_deficit(v.required_miles, v.current_miles, rate)
                rows.append([t, k, i, tier, v.arrival_slot, v.expected_departure_slot, needed,
                             needed - (v.expected_departure_slot - t), int(i in picked)])

        for i in picked:
            v = live[i]
            v.current_miles = min(v.current_miles + rate, v.battery_capacity_miles)
            if i not in satisfied and v.current_miles >= v.required_miles:
                satisfied[i] = t + 1
        # A vehicle leaves at the first boundary at which it holds its
        # required charge and its expected departure has come.
        for vid, v in list(plugged.items()):
            if vid in satisfied and t + 1 >= max(v.expected_departure_slot, satisfied[vid]):
                actual = t + 1
                # One row in Outcomes column order.
                outcomes[vid] = (
                    vid, v.arrival_slot, v.expected_departure_slot, satisfied[vid], actual,
                    actual - v.expected_departure_slot,
                )
                del plugged[vid]
        t += 1
    columns = zip(*(outcomes[vid] for vid in order))
    return Outcomes(*(np.array(column, dtype=np.int64) for column in columns)), rows, t
