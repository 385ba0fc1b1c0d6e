"""The five selection disciplines and their variants behind one interface.

Every policy serves the deficit list (vehicles short of their required
charge) before the top-off list (at or above required, below full).
Within a tier the order is policy-specific; surplus switches always go
to top-off under the same key so the comparison isolates the deficit
tier. Ties break by arrival slot, then id. Which runs serve the top-off
tier is the engine's rule (`gridshare.engine`'s module docstring).

A policy is chosen by name only. Besides the paper's five there are
three named variants: `fcfs-simple` and `rr-simple` use no
driving-distance information (one list, no top-off tier), and
`fdfs-slack` orders the not-yet-late vehicles by least slack instead of
earliest expected departure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from itertools import compress
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .workload import Fleet


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
        if self.fdfs_least_slack and self.kind is not PolicyKind.FDFS:
            raise ValueError(f"least slack is a tie rule of fdfs, not of {self.kind.value}")

    @property
    def name(self) -> str:
        if not self.use_distance_info:
            return self.kind.value + "-simple"
        return self.kind.value + ("-slack" if self.fdfs_least_slack else "")


# The paper's five policies, as `policies=all` runs them.
ALL_POLICY_NAMES = tuple(k.value for k in PolicyKind)
_POLICIES = {policy.name: policy for policy in (
    *(Policy(kind) for kind in PolicyKind),
    Policy(PolicyKind.FCFS, use_distance_info=False),
    Policy(PolicyKind.RR, use_distance_info=False),
    Policy(PolicyKind.FDFS, fdfs_least_slack=True),
)}
# Every name parse_policy accepts: the paper's five, then the variants.
POLICY_NAMES = tuple(_POLICIES)


def parse_policy(name: str) -> Policy:
    """The policy a name stands for."""
    try:
        return _POLICIES[name]
    except KeyError:
        raise ValueError(
            f"unknown policy {name!r} (choose from {', '.join(POLICY_NAMES)})") from None


@dataclass(slots=True)
class PolicyState:
    """The vehicle counters of one run and this slot's two tiers.

    A vehicle is named by its rank, its row in the run's fleet (whose
    rows are in arrival order: arrival slot, then id). need[rank] counts
    the charging intervals until it holds its required charge and
    spare[rank] those it can take above that: until its battery is
    full, and none once it has left. They start from the fleet's counts
    (spare = room - need), and the engine decrements them as it charges,
    so no float arithmetic happens in the loop: a charge decrements need
    while it is above 0, and spare after that. Both are int64 arrays
    indexed by rank.

    A priority key packs a primary value above rank_bits bits of rank,
    which rank_mask recovers (see `_keys`); departure_keys[rank] is the
    key of the fleet's expected departure slot (`departure_keys`).

    deficit and topoff are int64 arrays of ranks in list order (head =
    next in line for the rotation policy), refreshed each slot from the
    counters by update_membership, which says what serve_topoff changes.
    A vehicle's priority key is computed from the departure keys and the
    counters when select needs it, so no priority key is stored.
    """

    policy: Policy
    need: np.ndarray
    spare: np.ndarray
    departure_keys: np.ndarray
    rank_bits: int
    rank_mask: int  # (1 << rank_bits) - 1
    serve_topoff: bool
    deficit: np.ndarray = field(default_factory=lambda: _NO_RANKS)
    topoff: np.ndarray = field(default_factory=lambda: _NO_RANKS)


_NO_RANKS = np.zeros(0, dtype=np.int64)


def rank_bits(n: int) -> int:
    """Bits that hold every rank of a fleet of n vehicles (at least 1)."""
    return max(1, (n - 1).bit_length())


def departure_keys(fleet: "Fleet") -> np.ndarray:
    """departure << rank_bits | rank for every rank: the packed key of each expected departure.

    It depends on the fleet alone: the `Fleet` constructor builds it
    once, as `departure_keys`.
    """
    return np.arange(len(fleet)) | fleet.expected_departure_slot << rank_bits(len(fleet))


def new_policy_state(policy: Policy, fleet: "Fleet", serve_topoff: bool = True) -> PolicyState:
    """Empty tiers and fresh counters for a run over the fleet.

    The state shares the fleet's departure keys. Without serve_topoff it
    keeps no top-off tier (see `update_membership`).
    """
    need = fleet.need.copy()
    bits = rank_bits(len(fleet))
    return PolicyState(
        policy=policy, need=need, spare=fleet.room - need, departure_keys=fleet.departure_keys,
        rank_bits=bits, rank_mask=(1 << bits) - 1, serve_topoff=serve_topoff,
    )


def intervals_for_deficit(required_miles, current_miles, rate_miles_per_slot: float):
    """Whole charging slots needed to close a charge deficit (0 if none).

    Works elementwise on columns of miles as on single values, and
    returns int64.
    """
    deficit = np.maximum(np.subtract(required_miles, current_miles), 0.0)
    return np.ceil(deficit / rate_miles_per_slot).astype(np.int64)


# Least-slack FDFS puts every late vehicle ahead of every vehicle that
# still has slack: a late primary is shifted down by _LATE, and a slack
# (t_l - t) - need is above -need > -_LATE. workload.Fleet refuses
# counters and slots from _LATE up, so every primary is below 2**32 in
# magnitude; a fleet of fewer than 2**31 vehicles packs its ranks in
# at most 31 bits, so every packed key fits in int64.
_LATE = 1 << 31


def _keys(state: PolicyState, tier: np.ndarray, t: int) -> np.ndarray:
    """Packed priority keys of the ranks in `tier` at slot t; smaller is served earlier.

    A key is primary << rank_bits | rank, so comparing two keys compares
    (primary, arrival slot, id), the policy's tuple key, and the low
    rank_bits bits recover the rank. For fcfs and rr the key is the
    rank, and `tier` itself is returned; otherwise the keys are a new
    array, built from the departure keys and the counters gathered for
    the tier: an fdfs key is one gather, a minmax-dt or fdfs-slack key
    two gathers, a shift and a subtract.
    """
    policy = state.policy
    kind = policy.kind
    if kind is PolicyKind.FCFS or kind is PolicyKind.RR:
        return tier
    if kind is PolicyKind.MINMAX_ER:
        keys = state.need[tier]
        keys <<= state.rank_bits
        return np.subtract(tier, keys, out=keys)
    keys = state.departure_keys[tier]
    if kind is PolicyKind.FDFS and not policy.fdfs_least_slack:
        # Late vehicles first by how late they are; descending lateness
        # equals ascending expected departure, which also orders the
        # not-yet-late by earliest departure, so one key covers both.
        return keys
    needed = state.need[tier]
    if kind is PolicyKind.FDFS:
        # Late vehicles by expected departure, then the rest by slack
        # (t_l - t) - need; the common -t is dropped. A vehicle is late
        # once its expected departure is at most t.
        needed[keys < (t + 1) << state.rank_bits] = _LATE
    # minmax-dt: descending delay-if-charged-continuously is ascending
    # (departure - slots still needed); least slack orders the same way.
    needed <<= state.rank_bits
    keys -= needed
    return keys


def update_membership(state: PolicyState, arrived: range, satisfied: bool, emptied: bool) -> None:
    """Refresh the tiers at the start of a slot, preserving list order.

    arrived holds the ranks of the vehicles plugging in at that slot.
    satisfied says whether a vehicle's need reached 0 at the last
    boundary, and emptied whether a satisfied vehicle's spare did (its
    battery filled up or it left); only then can a vehicle leave a tier.
    Full or departed vehicles (need and spare 0) drop out; deficit
    vehicles whose need reached 0 move to the tail of the top-off list
    (in deficit-list order); arrivals that are not full join the tail of
    their tier, in rank order, read from their counters, which no run
    touches before a vehicle plugs in. Without serve_topoff a satisfied
    vehicle, arriving or moving, joins no tier. Without distance
    information there is no top-off tier: every not-full vehicle stays in
    the single deficit list. Either way only arrivals join the deficit
    list, so it stays in rank order.
    """
    deficit, topoff = state.deficit, state.topoff
    # Counters never fall below 0, so astype(bool) tests "above 0".
    need, spare = state.need, state.spare
    if not state.policy.use_distance_info:
        if emptied and len(deficit):
            deficit = deficit[(need[deficit] | spare[deficit]).astype(bool)]
    else:
        if satisfied:
            short = need[deficit].astype(bool)
            if state.serve_topoff:
                topoff = np.concatenate((topoff, deficit[~short]))
            deficit = deficit[short]
        # Every top-off vehicle has need 0, so spare alone tells if it is
        # full; a mover whose spare is 0 filled up as it was satisfied,
        # which set emptied.
        if emptied and len(topoff):
            topoff = topoff[spare[topoff].astype(bool)]
    if arrived:
        rows = slice(arrived.start, arrived.stop)
        tiered = state.policy.use_distance_info
        # Only a tiered deficit list refuses a not-full arrival: one with no need.
        needs = (need[rows] if tiered else need[rows] | spare[rows]).tolist()
        joining = list(compress(arrived, needs))
        if joining:
            deficit = np.concatenate((deficit, joining))
        if tiered and state.serve_topoff and len(joining) < len(needs):  # one has no need
            rooms = spare[rows].tolist()
            joining = [rank for rank, short, room in zip(arrived, needs, rooms) if room and not short]
            if joining:
                topoff = np.concatenate((topoff, joining))
    state.deficit, state.topoff = deficit, topoff


def _pick_by_key(state: PolicyState, tier: np.ndarray, k: int, t: int) -> np.ndarray:
    """The k ranks of a tier with the smallest keys, in no particular order (k below the tier size)."""
    if k == 0:
        return _NO_RANKS
    keys = _keys(state, tier, t)
    if keys is tier:
        keys = tier.copy()
    keys.partition(k - 1)
    keys = keys[:k]
    keys &= state.rank_mask
    return keys


def select(policy: Policy, state: PolicyState, t: int, K: int) -> np.ndarray:
    """Ranks of the vehicles switched on this slot: the deficit share, then the top-off share.

    Always returns min(K, eligible) ranks, so the first
    min(K, len(state.deficit)) are the deficit tier's; within each share
    the order is unspecified. Keys are computed only for a tier taken in
    part. fcfs takes the head of its deficit list, which is in rank
    order (key order) because only arrivals join it.
    The rotation policy moves what it picks to the bottom of its list;
    every other policy leaves the state untouched. The engine consults
    select only in a contended slot, where K is below the number of
    candidates (`gridshare.engine`'s module docstring states the rule).
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
        if k1 == len(deficit):
            first = deficit
        elif policy.kind is PolicyKind.FCFS:
            first = deficit[:k1]
        else:
            first = _pick_by_key(state, deficit, k1, t)
        if not k2:
            return first
        second = topoff if k2 == len(topoff) else _pick_by_key(state, topoff, k2, t)
    return np.concatenate((first, second)) if k2 else first
