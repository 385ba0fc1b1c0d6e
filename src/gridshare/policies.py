"""The five selection disciplines behind one interface.

Every policy serves the deficit list (vehicles short of their required
charge) before the top-off list (at or above required, below full).
Within a tier the order is policy-specific; surplus switches always go
to top-off under the same key so the comparison isolates the deficit
tier. Ties break by arrival slot, then id.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field
from enum import Enum
from itertools import islice
from typing import TYPE_CHECKING, Iterable, Sequence

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
# Kinds whose key changes each time a deficit vehicle is charged.
_NEED_KEYED = frozenset({PolicyKind.MINMAX_ER, PolicyKind.MINMAX_DT})


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


@dataclass
class PolicyState:
    """The two tiers of one run, each in list order.

    deficit and topoff map vehicle id -> packed priority key, and dict
    order is list order (head = next in line for the rotation policy).
    A key is primary * len(vehicles) + rank, where rank is the vehicle's
    position in `vehicles` (the run's fleet sorted by arrival slot, then
    id). Comparing two keys therefore compares (primary, arrival slot,
    id), the policy's tuple key, and key % len(vehicles) recovers the
    vehicle. Keys are kept current by update_membership, so select only
    sorts plain ints.
    """

    policy: Policy
    rate_miles_per_slot: float
    vehicles: Sequence["Vehicle"]
    deficit: dict = field(default_factory=dict)
    topoff: dict = field(default_factory=dict)
    # Least-slack FDFS only: expected departure slot -> ids whose key
    # switches to the late group at that slot.
    due: dict = field(default_factory=lambda: defaultdict(list))


def new_policy_state(policy: Policy, charger: "ChargerSpec", vehicles: Sequence["Vehicle"]) -> PolicyState:
    """Empty tiers for a run over `vehicles`, sorted by (arrival slot, id)."""
    return PolicyState(policy=policy, rate_miles_per_slot=charger.miles_per_slot, vehicles=vehicles)


def intervals_for_deficit(required_miles: float, current_miles: float, rate_miles_per_slot: float) -> int:
    """Whole charging slots needed to close a charge deficit (0 if none)."""
    deficit = required_miles - current_miles
    if deficit <= 0.0:
        return 0
    return math.ceil(deficit / rate_miles_per_slot)


def charge_intervals_required(vehicle: "Vehicle", charger: "ChargerSpec") -> int:
    """Slots of charging this vehicle still needs before it can leave."""
    return intervals_for_deficit(vehicle.required_miles, vehicle.current_miles, charger.miles_per_slot)


def delay_if_continuous(vehicle: "Vehicle", t: int, charger: "ChargerSpec") -> int:
    """Departure delay in slots if charged every remaining slot.

    Positive values are unavoidable delay already locked in; the
    magnitude of a negative value is how many slots of denial the
    vehicle can absorb before becoming late.
    """
    needed = charge_intervals_required(vehicle, charger)
    return needed - (vehicle.expected_departure_slot - t)


# Least-slack FDFS puts every late vehicle ahead of every vehicle that
# still has slack: its primary is shifted down by far more than any
# slack a vehicle can have.
_LATE = 1 << 62


def _primary(state: PolicyState, v: "Vehicle", t: int) -> int:
    """First component of v's priority key at slot t; smaller is served earlier.

    Ties break by arrival slot, then id, through the rank in the packed
    key. Dropping the common -t from least slack keeps keys of one tier
    comparable across the slots they were computed in.
    """
    policy = state.policy
    kind = policy.kind
    if kind is PolicyKind.FCFS or kind is PolicyKind.RR:
        return 0
    t_l = v.expected_departure_slot
    if kind is PolicyKind.FDFS and not policy.fdfs_least_slack:
        # Late vehicles first by how late they are; descending lateness
        # equals ascending expected departure, which also orders the
        # not-yet-late by earliest departure, so one key covers both.
        return t_l
    if kind is PolicyKind.FDFS and t >= t_l:
        return t_l - _LATE
    needed = intervals_for_deficit(v.required_miles, v.current_miles, state.rate_miles_per_slot)
    if kind is PolicyKind.MINMAX_ER:
        return -needed
    # minmax-dt: descending delay-if-charged-continuously is ascending
    # (departure - slots still needed); least slack orders the same way.
    return t_l - needed


def update_membership(state: PolicyState, t: int, arrived: Iterable[int],
                      charged: Iterable[int], left: Iterable[int]) -> PolicyState:
    """Apply one slot's events to the tiers, preserving list order.

    arrived holds the ranks (positions in state.vehicles) of the vehicles
    plugging in at slot t; charged and left hold the ids charged in the
    previous slot and departed at its end boundary. Departed or fully
    charged vehicles drop out; deficit vehicles that crossed their
    required charge move to the tail of the top-off list (in deficit-list
    order); arrivals that are not full join the tail of their tier.
    Without distance information there is no top-off tier: every
    not-full vehicle stays in the single deficit list.
    """
    deficit, topoff, vehicles = state.deficit, state.topoff, state.vehicles
    n = len(vehicles)
    policy = state.policy
    informed = policy.use_distance_info
    rotating = policy.kind is PolicyKind.RR
    least_slack = policy.kind is PolicyKind.FDFS and policy.fdfs_least_slack
    rekey = policy.kind in _NEED_KEYED or least_slack
    by_need = policy.kind is PolicyKind.MINMAX_ER
    rate = state.rate_miles_per_slot

    for vid in left:
        if deficit.pop(vid, None) is None:
            topoff.pop(vid, None)

    movers = []
    for vid in charged:
        tier = deficit if vid in deficit else topoff
        key = tier.get(vid)
        if key is None:
            continue  # departed at the last boundary
        rank = key % n
        v = vehicles[rank]
        if v.current_miles >= v.battery_capacity_miles:
            del tier[vid]
        elif tier is topoff:
            continue  # a top-off key needs no charge, so it stays
        elif informed and v.current_miles >= v.required_miles:
            del deficit[vid]
            movers.append(rank)
        elif rekey:
            # _primary for a vehicle still short of its required charge,
            # inlined: this branch runs once per charged deficit vehicle.
            needed = math.ceil((v.required_miles - v.current_miles) / rate)
            t_l = v.expected_departure_slot
            if by_need:
                primary = -needed
            elif least_slack and t >= t_l:
                primary = t_l - _LATE
            else:
                primary = t_l - needed
            deficit[vid] = primary * n + rank

    # Movers keep deficit-list order: rank order for the keyed policies,
    # whose deficit list only ever grows at the tail, and pick order for
    # the rotation policy, which moved its picks to the tail in that order.
    if not rotating:
        movers.sort()
    for rank in movers:
        v = vehicles[rank]
        topoff[v.id] = _primary(state, v, t) * n + rank

    for vid in state.due.pop(t, ()):
        for tier in (deficit, topoff):
            key = tier.get(vid)
            if key is not None:
                tier[vid] = _primary(state, vehicles[key % n], t) * n + key % n

    for rank in arrived:
        v = vehicles[rank]
        if v.current_miles >= v.battery_capacity_miles:
            continue
        if least_slack:
            state.due[v.expected_departure_slot].append(v.id)
        tier = topoff if informed and v.current_miles >= v.required_miles else deficit
        tier[v.id] = _primary(state, v, t) * n + rank
    return state


def _take_top(state: PolicyState, tier: dict, k: int) -> list[int]:
    if k == len(tier):
        return list(tier)
    if k == 0:
        return []
    vehicles = state.vehicles
    n = len(vehicles)
    return [vehicles[key % n].id for key in sorted(tier.values())[:k]]


def _rotate(tier: dict, k: int) -> list[int]:
    picked = list(islice(tier, k))
    for vid in picked:
        tier[vid] = tier.pop(vid)
    return picked


def select(policy: Policy, state: PolicyState, t: int, K: int) -> list[int]:
    """Ids of the vehicles switched on this slot, highest priority first.

    Always returns min(K, eligible) ids, deficit tier before top-off; a
    tier taken whole comes in list order.
    The rotation policy moves what it picks to the bottom of its list;
    every other policy leaves the state untouched.
    """
    if K < 0:
        raise ValueError("negative capacity")
    k1 = min(K, len(state.deficit))
    k2 = min(K - k1, len(state.topoff))
    if policy.kind is PolicyKind.RR:
        return _rotate(state.deficit, k1) + _rotate(state.topoff, k2)
    return _take_top(state, state.deficit, k1) + _take_top(state, state.topoff, k2)
