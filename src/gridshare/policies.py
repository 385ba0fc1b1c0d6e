"""The five selection disciplines behind one interface.

Every policy serves the deficit list (vehicles short of their required
charge) before the top-off list (at or above required, below full).
Within a tier the order is policy-specific; surplus switches always go
to top-off under the same key so the comparison isolates the deficit
tier. Ties break by arrival slot, then id.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Sequence

import numpy as np

if TYPE_CHECKING:
    from .powergrid import ChargerSpec
    from .workload import Vehicle


class PolicyKind(Enum):
    FCFS = "fcfs"
    FDFS = "fdfs"
    RR = "rr"
    MINMAX_ER = "minmax-er"
    MINMAX_DT = "minmax-dt"


# Kinds whose priority key depends on the charge deficit, so the simple
# (no driving-distance information) variant makes no sense for them.
_DISTANCE_REQUIRED = frozenset({PolicyKind.FDFS, PolicyKind.MINMAX_ER, PolicyKind.MINMAX_DT})


@dataclass(frozen=True)
class Policy:
    kind: PolicyKind
    use_distance_info: bool = True
    # Alternative reading of the FDFS tie rule for not-yet-late vehicles:
    # least slack instead of earliest expected departure.
    fdfs_least_slack: bool = False

    def __post_init__(self):
        if not self.use_distance_info and self.kind in _DISTANCE_REQUIRED:
            raise ValueError(f"{self.kind.value} requires driving-distance information")

    @property
    def name(self) -> str:
        suffix = "" if self.use_distance_info else "-simple"
        return self.kind.value + suffix


def parse_policy(name: str, *, simple: bool = False, fdfs_least_slack: bool = False) -> Policy:
    """Build a policy from its CLI name."""
    try:
        kind = PolicyKind(name)
    except ValueError:
        known = ", ".join(k.value for k in PolicyKind)
        raise ValueError(f"unknown policy {name!r} (choose from {known})") from None
    return Policy(kind=kind, use_distance_info=not simple, fdfs_least_slack=fdfs_least_slack)


ALL_POLICY_NAMES = tuple(k.value for k in PolicyKind)
# Names of the kinds that also run as a `-simple` variant.
SIMPLE_VARIANT_NAMES = tuple(k.value for k in PolicyKind if k not in _DISTANCE_REQUIRED)


@dataclass
class PolicyState:
    """The vehicle counters of one run and this slot's two tiers.

    A vehicle is named by its rank, its position in `vehicles` (the
    run's fleet sorted by arrival slot, then id). need[rank] counts the
    charging intervals until it holds its required charge and
    room[rank] those it can still take: until its battery is full, and
    none once it has left. The engine decrements both as it charges, so
    no float arithmetic happens after set-up. departure[rank] is the
    expected departure slot. All three are int64 arrays indexed by rank.

    deficit and topoff are int64 arrays of ranks in list order (head =
    next in line for the rotation policy), refreshed each slot by
    update_membership. A vehicle's priority key is computed from the
    counters when select needs it, so no key is stored.
    """

    policy: Policy
    vehicles: Sequence["Vehicle"]
    need: np.ndarray
    room: np.ndarray
    departure: np.ndarray
    # The tier each rank joins when it plugs in: 1 (deficit), 2
    # (top-off) or 0 (none, its battery is full); one byte per rank.
    joins: bytes
    deficit: np.ndarray = field(default_factory=lambda: _NO_RANKS)
    topoff: np.ndarray = field(default_factory=lambda: _NO_RANKS)


_NO_RANKS = np.zeros(0, dtype=np.int64)


def new_policy_state(policy: Policy, charger: "ChargerSpec", vehicles: Sequence["Vehicle"]) -> PolicyState:
    """Empty tiers for a run over `vehicles`, sorted by (arrival slot, id)."""
    rate = charger.miles_per_slot
    need = [intervals_for_deficit(v.required_miles, v.current_miles, rate) for v in vehicles]
    room = [intervals_for_deficit(v.battery_capacity_miles, v.current_miles, rate) for v in vehicles]
    departure = [v.expected_departure_slot for v in vehicles]
    if vehicles and max(max(room), max(departure)) >= _LATE:
        raise ValueError("charging intervals or departure slots beyond the priority-key range")
    informed = policy.use_distance_info
    return PolicyState(
        policy=policy, vehicles=vehicles,
        need=np.array(need, dtype=np.int64),
        room=np.array(room, dtype=np.int64),
        departure=np.array(departure, dtype=np.int64),
        joins=bytes([0 if not spare else 2 if informed and not short else 1 for short, spare in zip(need, room)]),
    )


def intervals_for_deficit(required_miles: float, current_miles: float, rate_miles_per_slot: float) -> int:
    """Whole charging slots needed to close a charge deficit (0 if none)."""
    deficit = required_miles - current_miles
    if deficit <= 0.0:
        return 0
    return math.ceil(deficit / rate_miles_per_slot)


# Least-slack FDFS puts every late vehicle ahead of every vehicle that
# still has slack: a late primary is shifted down by _LATE, and a slack
# (t_l - t) - need is above -need > -_LATE. new_policy_state refuses
# counters and slots from _LATE up, so every packed key fits in int64
# for fleets of fewer than 2**31 vehicles.
_LATE = 1 << 31


def _keys(state: PolicyState, tier: np.ndarray, t: int) -> np.ndarray:
    """Packed priority keys of the ranks in `tier` at slot t; smaller is served earlier.

    A key is primary * len(vehicles) + rank, so comparing two keys
    compares (primary, arrival slot, id), the policy's tuple key, and
    key % len(vehicles) recovers the rank.
    """
    policy = state.policy
    kind = policy.kind
    if kind is PolicyKind.FCFS or kind is PolicyKind.RR:
        return tier
    n = len(state.vehicles)
    t_l = state.departure[tier]
    if kind is PolicyKind.FDFS and not policy.fdfs_least_slack:
        # Late vehicles first by how late they are; descending lateness
        # equals ascending expected departure, which also orders the
        # not-yet-late by earliest departure, so one key covers both.
        return t_l * n + tier
    needed = state.need[tier]
    if kind is PolicyKind.FDFS:
        # Late vehicles by expected departure, then the rest by slack
        # (t_l - t) - need; the common -t is dropped.
        return (t_l - np.where(t_l <= t, _LATE, needed)) * n + tier
    if kind is PolicyKind.MINMAX_ER:
        return tier - needed * n
    # minmax-dt: descending delay-if-charged-continuously is ascending
    # (departure - slots still needed); least slack orders the same way.
    return (t_l - needed) * n + tier


def update_membership(state: PolicyState, t: int, arrived: range,
                      satisfied: bool, emptied: bool) -> PolicyState:
    """Refresh the tiers for slot t, preserving list order.

    arrived holds the ranks of the vehicles plugging in at slot t.
    satisfied says whether a vehicle's need reached 0 at the last
    boundary, and emptied whether a vehicle's room did (its battery
    filled up or it left); only then can a vehicle leave a tier. Full or
    departed vehicles (room 0) drop out; deficit vehicles whose need
    reached 0 move to the tail of the top-off list (in deficit-list
    order); arrivals that are not full join the tail of their tier, in
    rank order. Without distance information there is no top-off tier:
    every not-full vehicle stays in the single deficit list.
    """
    deficit, topoff = state.deficit, state.topoff
    # Counters never fall below 0, so astype(bool) tests "above 0".
    need, room = state.need, state.room
    if not state.policy.use_distance_info:
        if emptied and len(deficit):
            deficit = deficit[room[deficit].astype(bool)]
    else:
        if emptied and len(topoff):
            topoff = topoff[room[topoff].astype(bool)]
        if satisfied:
            short = need[deficit].astype(bool)
            movers = deficit[~short]
            deficit = deficit[short]
            if emptied:
                movers = movers[room[movers].astype(bool)]
            topoff = np.concatenate((topoff, movers))
    if arrived:
        joins = state.joins
        joining = [rank for rank in arrived if joins[rank] == 1]
        if joining:
            deficit = np.concatenate((deficit, joining))
        joining = [rank for rank in arrived if joins[rank] == 2]
        if joining:
            topoff = np.concatenate((topoff, joining))
    state.deficit, state.topoff = deficit, topoff
    return state


def _pick_by_key(state: PolicyState, tier: np.ndarray, k: int, t: int) -> np.ndarray:
    """The k ranks of a tier with the smallest keys, in key order (k below the tier size)."""
    if k == 0:
        return _NO_RANKS
    keys = _keys(state, tier, t)
    return np.sort(np.partition(keys, k - 1)[:k]) % len(state.vehicles)


def select(policy: Policy, state: PolicyState, t: int, K: int) -> np.ndarray:
    """Ranks of the vehicles switched on this slot, highest priority first.

    Always returns min(K, eligible) ranks, deficit tier before top-off; a
    tier taken whole comes in list order, and keys are computed only for
    a tier taken in part.
    The rotation policy moves what it picks to the bottom of its list;
    every other policy leaves the state untouched.
    """
    if K < 0:
        raise ValueError("negative capacity")
    deficit, topoff = state.deficit, state.topoff
    k1 = min(K, len(deficit))
    k2 = min(K - k1, len(topoff))
    if policy.kind is PolicyKind.RR:
        first, second = deficit[:k1], topoff[:k2]
        if 0 < k1 < len(deficit):
            state.deficit = np.concatenate((deficit[k1:], first))
        if 0 < k2 < len(topoff):
            state.topoff = np.concatenate((topoff[k2:], second))
    else:
        first = deficit if k1 == len(deficit) else _pick_by_key(state, deficit, k1, t)
        if not k2:
            return first
        second = topoff if k2 == len(topoff) else _pick_by_key(state, topoff, k2, t)
    return np.concatenate((first, second)) if k2 else first
