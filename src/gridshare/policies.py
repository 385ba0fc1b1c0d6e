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
# Names of the kinds that also run as a `-simple` variant.
SIMPLE_VARIANT_NAMES = tuple(k.value for k in PolicyKind if k not in _DISTANCE_REQUIRED)


@dataclass
class PolicyState:
    """The two tiers of one run, each in list order, and the vehicle counters.

    A vehicle is named by its rank, its position in `vehicles` (the
    run's fleet sorted by arrival slot, then id). need[rank] counts the
    charging intervals until it holds its required charge and
    room[rank] those until its battery is full; the engine decrements
    both as it charges, so no float arithmetic happens after set-up.

    deficit and topoff map rank -> packed priority key, and dict order
    is list order (head = next in line for the rotation policy). A key
    is primary * len(vehicles) + rank, so comparing two keys compares
    (primary, arrival slot, id), the policy's tuple key, and
    key % len(vehicles) recovers the rank. Keys are kept current by
    update_membership, so select only sorts plain ints.
    """

    policy: Policy
    vehicles: Sequence["Vehicle"]
    need: list[int]
    room: list[int]
    deficit: dict = field(default_factory=dict)
    topoff: dict = field(default_factory=dict)
    # Least-slack FDFS only: expected departure slot -> ranks whose key
    # switches to the late group at that slot.
    due: dict = field(default_factory=lambda: defaultdict(list))


def new_policy_state(policy: Policy, charger: "ChargerSpec", vehicles: Sequence["Vehicle"]) -> PolicyState:
    """Empty tiers for a run over `vehicles`, sorted by (arrival slot, id)."""
    rate = charger.miles_per_slot
    return PolicyState(
        policy=policy,
        vehicles=vehicles,
        need=[intervals_for_deficit(v.required_miles, v.current_miles, rate) for v in vehicles],
        room=[intervals_for_deficit(v.battery_capacity_miles, v.current_miles, rate) for v in vehicles],
    )


def intervals_for_deficit(required_miles: float, current_miles: float, rate_miles_per_slot: float) -> int:
    """Whole charging slots needed to close a charge deficit (0 if none)."""
    deficit = required_miles - current_miles
    if deficit <= 0.0:
        return 0
    return math.ceil(deficit / rate_miles_per_slot)


# Least-slack FDFS puts every late vehicle ahead of every vehicle that
# still has slack: its primary is shifted down by far more than any
# slack a vehicle can have.
_LATE = 1 << 62


def _primary(state: PolicyState, rank: int, t: int) -> int:
    """First component of a vehicle's priority key at slot t; smaller is served earlier.

    Ties break by arrival slot, then id, through the rank in the packed
    key. Dropping the common -t from least slack keeps keys of one tier
    comparable across the slots they were computed in.
    """
    policy = state.policy
    kind = policy.kind
    if kind is PolicyKind.FCFS or kind is PolicyKind.RR:
        return 0
    t_l = state.vehicles[rank].expected_departure_slot
    if kind is PolicyKind.FDFS and not policy.fdfs_least_slack:
        # Late vehicles first by how late they are; descending lateness
        # equals ascending expected departure, which also orders the
        # not-yet-late by earliest departure, so one key covers both.
        return t_l
    if kind is PolicyKind.FDFS and t >= t_l:
        return t_l - _LATE
    needed = state.need[rank]
    if kind is PolicyKind.MINMAX_ER:
        return -needed
    # minmax-dt: descending delay-if-charged-continuously is ascending
    # (departure - slots still needed); least slack orders the same way.
    return t_l - needed


def update_membership(state: PolicyState, t: int, arrived: Iterable[int],
                      charged: Iterable[int], left: Iterable[int]) -> PolicyState:
    """Apply one slot's events to the tiers, preserving list order.

    arrived holds the ranks of the vehicles plugging in at slot t;
    charged and left hold the ranks charged in the previous slot (whose
    counters the engine has already decremented) and departed at its end
    boundary. Departed or full (room 0) vehicles drop out; deficit
    vehicles whose need reached 0 move to the tail of the top-off list
    (in deficit-list order); arrivals that are not full join the tail of
    their tier. Without distance information there is no top-off tier:
    every not-full vehicle stays in the single deficit list.
    """
    deficit, topoff, need, room = state.deficit, state.topoff, state.need, state.room
    n = len(state.vehicles)
    policy = state.policy
    informed = policy.use_distance_info
    rotating = policy.kind is PolicyKind.RR
    least_slack = policy.kind is PolicyKind.FDFS and policy.fdfs_least_slack
    rekey = policy.kind in _NEED_KEYED or least_slack

    for rank in left:
        if deficit.pop(rank, None) is None:
            topoff.pop(rank, None)

    movers = []
    for rank in charged:
        if rank in deficit:
            if not room[rank]:
                del deficit[rank]
            elif informed and not need[rank]:
                del deficit[rank]
                movers.append(rank)
            elif rekey and (not least_slack or t < state.vehicles[rank].expected_departure_slot):
                # One interval less needed adds one to the primary
                # (-need, or departure - need); a late key has no need term.
                deficit[rank] += n
        elif not room[rank]:
            # A top-off key needs no charge, so only a full battery
            # changes it; a vehicle that departed is in neither tier.
            topoff.pop(rank, None)

    # Movers keep deficit-list order: rank order for the keyed policies,
    # whose deficit list only ever grows at the tail, and pick order for
    # the rotation policy, which moved its picks to the tail in that order.
    if not rotating:
        movers.sort()
    for rank in movers:
        topoff[rank] = _primary(state, rank, t) * n + rank

    for rank in state.due.pop(t, ()):
        for tier in (deficit, topoff):
            if rank in tier:
                tier[rank] = _primary(state, rank, t) * n + rank

    for rank in arrived:
        if not room[rank]:
            continue
        if least_slack:
            state.due[state.vehicles[rank].expected_departure_slot].append(rank)
        tier = topoff if informed and not need[rank] else deficit
        tier[rank] = _primary(state, rank, t) * n + rank
    return state


def _take_top(tier: dict, k: int, n: int) -> list[int]:
    if k == len(tier):
        return list(tier)
    if k == 0:
        return []
    return [key % n for key in sorted(tier.values())[:k]]


def _rotate(tier: dict, k: int) -> list[int]:
    picked = list(islice(tier, k))
    for rank in picked:
        tier[rank] = tier.pop(rank)
    return picked


def select(policy: Policy, state: PolicyState, t: int, K: int) -> list[int]:
    """Ranks of the vehicles switched on this slot, highest priority first.

    Always returns min(K, eligible) ranks, deficit tier before top-off; a
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
    n = len(state.vehicles)
    return _take_top(state.deficit, k1, n) + _take_top(state.topoff, k2, n)
