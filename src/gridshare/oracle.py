"""Independent verification tools for desk-scale instances.

Two tools: an exhaustive search for the best achievable maximum delay
on tiny instances (never touching the policy code), and an auditor that
replays a per-slot trace and checks the selection rules slot by slot.
The auditor takes a trace as (slot, k, rows) groups of `engine.TraceRow`,
either as the engine hands them to its trace sink or as `read_trace`
parses them from a trace.csv file. `verify_campaign`, which
`gridshare verify` and the acceptance test both run, runs both tools
over random instances and audits every run from its groups in memory.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations, zip_longest
from typing import Sequence

import numpy as np

from .engine import TRACE_FIELDS, Outcomes, RunStats, TraceRow, run_simulation
from .policies import Policy, PolicyKind
from .powergrid import ChargerSpec
from .workload import Fleet

# Rate of one mile per slot makes required_miles equal whole charging
# intervals, the natural unit for hand-checkable instances.
ORACLE_CHARGER = ChargerSpec(miles_per_slot=1.0)

MAX_TINY_VEHICLES = 5
MAX_TINY_HORIZON = 30


@dataclass(frozen=True)
class TinyInstance:
    """Hand-checkable sessions and their capacity profile.

    Each session is an (arrival, expected departure, need) triple: the
    vehicle arrives empty and needs that many charging intervals, and
    its battery holds topoff_extra intervals more. The exhaustive search
    reads the triples; every policy run on the instance shares the one
    fleet built from them (ids in session order), with its run data.
    """

    sessions: tuple[tuple[int, int, int], ...]
    k_profile: tuple[int, ...]
    topoff_extra: float = 0.0
    fleet: Fleet = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 1 <= len(self.sessions) <= MAX_TINY_VEHICLES:
            raise ValueError(f"tiny instances hold 1..{MAX_TINY_VEHICLES} vehicles")
        arrival, departure, need = np.array(self.sessions, dtype=np.int64).T
        if arrival.max() > MAX_TINY_HORIZON:
            raise ValueError(f"arrivals must fall within {MAX_TINY_HORIZON} slots")
        if not self.k_profile or any(k < 0 for k in self.k_profile):
            raise ValueError("k_profile must be non-empty and non-negative")
        object.__setattr__(self, "fleet", Fleet(
            ORACLE_CHARGER, arrival, departure - arrival, need, 0.0, need + self.topoff_extra,
            expected_departure_slot=departure))


def tiny_instance(specs: Sequence[tuple[int, int, int]], k_profile: Sequence[int],
                  topoff_extra: float = 0.0) -> TinyInstance:
    """Build an instance from (arrival, expected_departure, needed_slots) triples."""
    return TinyInstance(tuple((int(a), int(d), int(n)) for a, d, n in specs),
                        tuple(int(k) for k in k_profile), float(topoff_extra))


def brute_force_min_max_delay(inst: TinyInstance, branch_budget: int = 10_000_000,
                              bound: int | None = None) -> int:
    """Exact minimum over all on/off schedules of the largest delay, or bound if lower.

    Exhaustive search over per-slot charging subsets with memoization on
    (slot, remaining needs). Charging a larger subset never hurts, so
    only maximal subsets are enumerated. The search returns
    min(optimum, bound): it drops a branch once the delay of a vehicle
    it finishes reaches the best value found so far (at first the
    bound), and a state once its lower bound reaches the bound. A
    state's lower bound is the largest max(t, arrival) + remaining -
    departure over its unfinished vehicles, the delay each has if
    charged in every slot from now on. Raises if the search would
    exceed the branch budget.
    """
    arrivals, deadlines, needs = zip(*inst.sessions)
    profile = inst.k_profile
    cycle = len(profile)
    limit = math.inf if bound is None else bound

    if sum(profile) == 0 and sum(needs) > 0:
        raise ValueError("k_profile provides no capacity")
    # Generous stopping point: even one charger-slot per profile cycle
    # finishes everything within this horizon, so a run past it is a bug.
    cycles_needed = -(-sum(needs) // max(sum(profile), 1))
    t_max = max(deadlines) + cycle * (cycles_needed + 2) + 4

    budget = branch_budget

    @lru_cache(maxsize=None)
    def best_from(t: int, remaining: tuple) -> int:
        nonlocal budget
        budget -= 1
        if budget < 0:
            raise RuntimeError("instance too large for exhaustive search")
        if not any(remaining):  # needs are never negative
            return 0
        if t > t_max:
            raise RuntimeError("search ran past the feasibility horizon")
        floor = max([(a if a > t else t) + r - d
                     for r, a, d in zip(remaining, arrivals, deadlines) if r])
        if floor >= limit:
            return limit
        eligible = [i for i, (r, a) in enumerate(zip(remaining, arrivals)) if r and a <= t]
        if not eligible:
            # Nothing plugged and unfinished: jump to the next arrival.
            t_next = min(a for r, a in zip(remaining, arrivals) if r)
            return best_from(t_next, remaining)
        k = profile[t % cycle]
        m = min(k, len(eligible))
        if m == 0:
            return best_from(t + 1, remaining)
        boundary = t + 1
        best = limit
        for subset in combinations(eligible, m):
            rem = list(remaining)
            finish_delay = 0
            for i in subset:
                rem[i] -= 1
                if not rem[i] and boundary - deadlines[i] > finish_delay:
                    finish_delay = boundary - deadlines[i]
            if finish_delay >= best:
                continue  # this branch cannot do better
            value = best_from(boundary, tuple(rem))
            if finish_delay > value:
                value = finish_delay
            if value < best:
                best = value
                if best <= floor or not best:
                    break  # no schedule from this state does better
        return best

    try:
        return best_from(0, needs)
    finally:
        best_from.cache_clear()


def run_policy_on_instance(inst: TinyInstance, policy: Policy, trace_path=None,
                           trace_sink=None) -> Outcomes:
    """Drive the real engine over a tiny instance with its capacity profile.

    trace_path and trace_sink are the engine's (see `run_simulation`).
    """
    # Nothing here reads the stats; the benchmark's engine span hooks read
    # them from the `stats` keyword.
    return run_simulation(policy, inst.fleet, inst.k_profile, trace_path=trace_path,
                          trace_sink=trace_sink, stats=RunStats())


def max_delay(outcomes: Outcomes) -> int:
    return max(outcomes.delay_slots.tolist(), default=0)


# The half-open ranges of a random tiny session's arrival, need and stay.
_SESSION_LOW, _SESSION_HIGH = (0, 0, 1), (10, 7, 15)


def random_tiny_instance(rng: np.random.Generator, *, constant_k: bool = False) -> TinyInstance:
    """A feasible random instance: mixed arrivals, needs, and K pattern.

    With constant_k the capacity is the same every slot; this is the
    regime in which the largest-delay-first policy provably matches the
    exhaustive optimum. Cycling profiles with zero-capacity slots break
    the policy's charged-every-slot lookahead and are used for rule
    audits only.
    """
    n = int(rng.integers(2, MAX_TINY_VEHICLES + 1))
    # Each vehicle's arrival, need and stay, drawn in one call that takes
    # the values one scalar draw each would, in the same order.
    drawn = rng.integers(_SESSION_LOW * n, _SESSION_HIGH * n).tolist()
    specs = [(arrival, arrival + stay, need)
             for arrival, need, stay in zip(drawn[0::3], drawn[1::3], drawn[2::3])]
    if constant_k:
        k_profile = [int(rng.integers(1, 4))]
    else:
        cycle = int(rng.integers(3, 9))
        k_profile = rng.integers(0, 4, size=cycle).tolist()
        if sum(k_profile) == 0:
            k_profile[int(rng.integers(0, cycle))] = 1
    topoff_extra = (0.0, 2.0)[int(rng.integers(0, 2))]
    return tiny_instance(specs, k_profile, topoff_extra=topoff_extra)


def verify_campaign(
    policies: Sequence[Policy], rng: np.random.Generator, n_steady: int, n_cycling: int,
    trace_path,
) -> tuple[list[Violation], list[tuple[int, int, int]]]:
    """Audit every policy on random instances; check minmax-dt's optimum.

    Steady-capacity instances check the largest-delay-first policy
    against the exhaustive optimum; cycling-capacity instances only
    audit the per-slot selection rules (the optimum needs hindsight
    there, so no online policy is held to it). The search runs only
    after a minmax-dt run, bounded at its achieved delay + 1, which
    tells whether the two are equal; a search that reaches the bound
    runs again unbounded, so a mismatch reports the exact optimum.
    Every run is audited from the (slot, k, rows) groups the engine hands its trace sink, with no
    file in between. Each policy's run on the first steady instance also
    writes its trace to trace_path, which is read back with `read_trace`
    and then removed: the groups it reads must equal the engine's, or a
    `trace-roundtrip` violation is reported, so the trace.csv format that
    `verify --audit-trace` reads is checked too. Returns the violations,
    their detail prefixed with the instance and policy, and the
    (instance, achieved, optimum) mismatches.
    """
    violations: list[Violation] = []
    mismatches: list[tuple[int, int, int]] = []
    for label, count, steady in (("instance", n_steady, True), ("varying instance", n_cycling, False)):
        for index in range(count):
            inst = random_tiny_instance(rng, constant_k=steady)
            sample = steady and index == 0
            for policy in policies:
                groups = []
                outcomes = run_policy_on_instance(
                    inst, policy, trace_path=trace_path if sample else None, trace_sink=groups.append)
                found = audit_trace(groups, policy)
                if sample:
                    found += _roundtrip_violations(groups, trace_path)
                    os.unlink(trace_path)
                for v in found:
                    violations.append(Violation(
                        v.slot, v.rule, f"{label} {index} policy {policy.name}: {v.detail}"))
                if steady and policy.kind is PolicyKind.MINMAX_DT:
                    achieved = max_delay(outcomes)
                    # min(optimum, achieved + 1) equals achieved exactly
                    # when the optimum does.
                    optimum = brute_force_min_max_delay(inst, bound=achieved + 1)
                    if optimum > achieved:
                        optimum = brute_force_min_max_delay(inst)  # the bound hid it
                    if optimum != achieved:
                        mismatches.append((index, achieved, optimum))
    return violations, mismatches


# ---------------------------------------------------------------------------
# Trace auditing


@dataclass(frozen=True)
class Violation:
    slot: int
    rule: str
    detail: str


def read_trace(path) -> list[tuple[int, int, list[TraceRow]]]:
    """Parse a trace CSV into (slot, k, rows) groups in slot order.

    The groups have the form the engine hands its trace sink, so a trace
    read back from its file equals the trace the run produced. A row
    whose tier is not 1 or 2, or whose selected flag is not 0 or 1, is
    refused: the audit would file it in neither tier. So is a K below 0,
    which no run has and the audit would take as a count from the end
    of a list.
    """
    slots: list[tuple[int, int, list[TraceRow]]] = []
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(header) != TRACE_FIELDS:
            raise ValueError(f"{path}:1: unexpected trace header {header!r}")
        for lineno, raw in enumerate(reader, start=2):
            try:
                slot, k, vid, tier, arr, dep, need, dt, sel = map(int, raw)
            except (ValueError, TypeError):
                raise ValueError(f"{path}:{lineno}: malformed trace row {raw!r}") from None
            if tier not in (1, 2) or sel not in (0, 1):
                raise ValueError(f"{path}:{lineno}: tier must be 1 or 2 and selected 0 or 1 in {raw!r}")
            if k < 0:
                raise ValueError(f"{path}:{lineno}: k must be 0 or more in {raw!r}")
            row = TraceRow(vid, tier, arr, dep, need, dt, bool(sel))
            if slots and slots[-1][0] == slot:
                if slots[-1][1] != k:
                    raise ValueError(f"{path}:{lineno}: inconsistent K within slot {slot}")
                slots[-1][2].append(row)
            else:
                if slots and slot < slots[-1][0]:
                    raise ValueError(f"{path}:{lineno}: slots out of order")
                slots.append((slot, k, [row]))
    return slots


def _roundtrip_violations(groups, path) -> list[Violation]:
    """A violation if the trace file at path does not read back as groups."""
    try:
        read = read_trace(path)
    except ValueError as exc:
        return [Violation(-1, "trace-roundtrip", f"written trace unreadable: {exc}")]
    for wrote, got in zip_longest(groups, read):
        if wrote != got:
            slot = (wrote or got)[0]
            return [Violation(slot, "trace-roundtrip",
                              f"written trace reads back as {got!r}, not {wrote!r}")]
    return []


def _audit_key(policy: Policy, slot: int, row: TraceRow):
    kind = policy.kind
    if kind is PolicyKind.FCFS or kind is PolicyKind.RR:
        return (row.arrival_slot, row.vehicle_id)
    if kind is PolicyKind.FDFS:
        if not policy.fdfs_least_slack:
            return (row.expected_departure_slot, row.arrival_slot, row.vehicle_id)
        if slot >= row.expected_departure_slot:
            return (0, row.expected_departure_slot, row.arrival_slot, row.vehicle_id)
        slack = (row.expected_departure_slot - slot) - row.intervals_needed
        return (1, slack, row.arrival_slot, row.vehicle_id)
    if kind is PolicyKind.MINMAX_ER:
        return (-row.intervals_needed, row.arrival_slot, row.vehicle_id)
    if kind is PolicyKind.MINMAX_DT:
        return (-row.delay_if_continuous, row.arrival_slot, row.vehicle_id)
    raise AssertionError(kind)


def audit_trace(trace, policy: Policy) -> list[Violation]:
    """Check a per-slot trace against the selection contract.

    trace is an iterable of (slot, k, rows) groups, an engine run's or
    `read_trace`'s. Verifies, slot by slot: row self-consistency, work conservation,
    deficit-before-top-off ordering, the policy's top-K key order (with
    tie-breaks) for the sorted policies, list rotation for round robin,
    and the delay-dominance rule for the min-max-delay policy. The list
    reconstruction is done from scratch here; the policy module is never
    consulted.

    Each group's rows are read in one pass that checks the delay column,
    counts the selected rows and splits the two tiers; a tier is put in
    key order only when it is taken in part.
    """
    violations: list[Violation] = []
    rotating = policy.kind is PolicyKind.RR
    delay_first = policy.kind is PolicyKind.MINMAX_DT
    # Reconstructed list orders for the rotation check: ids, head first.
    order1: list[int] = []
    order2: list[int] = []

    for slot, k, rows in trace:
        ids = set()
        tier1 = []
        tier2 = []
        inconsistent = []
        chosen = []  # ids of the selected rows, in row order
        n_sel1 = n_sel2 = 0
        for row in rows:
            vid, tier, _, departure, needed, delay, selected = row
            ids.add(vid)
            if delay != needed - (departure - slot):
                inconsistent.append(Violation(
                    slot, "row-consistency",
                    f"vehicle {vid}: delay column {delay} != {needed - (departure - slot)}",
                ))
            if tier == 1:
                tier1.append(row)
            elif tier == 2:
                tier2.append(row)
            if selected:
                chosen.append(vid)
                if tier == 1:
                    n_sel1 += 1
                elif tier == 2:
                    n_sel2 += 1
        if len(ids) != len(rows):
            violations.append(Violation(slot, "duplicate-row", "vehicle listed twice"))
            continue
        if inconsistent:
            violations += inconsistent

        expected_count = min(k, len(rows))
        if len(chosen) != expected_count:
            violations.append(Violation(
                slot, "work-conservation",
                f"selected {len(chosen)}, expected min({k}, {len(rows)}) = {expected_count}",
            ))

        if n_sel2 and n_sel1 < len(tier1):
            violations.append(Violation(
                slot, "tier-ordering", "top-off vehicle charged while a deficit vehicle waited"))

        if rotating:
            ids1 = [row[0] for row in tier1]
            ids2 = [row[0] for row in tier2]
            # Rows listed in the lists' own order mean the lists are unchanged.
            if ids1 != order1 or ids2 != order2:
                order1, order2 = _follow_lists(order1, order2, ids1, ids2)
            k1 = min(k, len(order1))
            k2 = k - k1
            expected = order1[:k1] + order2[:k2]
            actual = set(chosen)
            if actual == set(expected):
                # The heads were selected: they go to the tails.
                order1 = order1[k1:] + order1[:k1]
                order2 = order2[k2:] + order2[:k2]
                continue
            violations.append(Violation(
                slot, "rr-rotation",
                f"selected {sorted(actual)}, rotation order expects {sorted(expected)}",
            ))
            # What was selected goes to the tail of its list, which
            # re-syncs, so one fault is reported once, not echoed forever.
            order1 = _rotate(order1, actual)
            order2 = _rotate(order2, actual)
            continue
        for tier_rows, n_sel in ((tier1, n_sel1), (tier2, n_sel2)):
            if 0 < n_sel < len(tier_rows):
                ordered = sorted(tier_rows, key=lambda r: _audit_key(policy, slot, r))
                should = {r.vehicle_id for r in ordered[:n_sel]}
                actual = {r.vehicle_id for r in tier_rows if r.selected}
                if should != actual:
                    violations.append(Violation(
                        slot, "key-ordering",
                        f"tier {tier_rows[0].tier}: selected {sorted(actual)}, "
                        f"priority order expects {sorted(should)}",
                    ))
        # The deficit tier has a selected and a waiting vehicle only when
        # it is taken in part.
        if delay_first and 0 < n_sel1 < len(tier1):
            worst_unselected = max(r.delay_if_continuous for r in tier1 if not r.selected)
            least_selected = min(r.delay_if_continuous for r in tier1 if r.selected)
            if worst_unselected > least_selected:
                violations.append(Violation(
                    slot, "dt-dominance",
                    f"unselected delay {worst_unselected} exceeds selected {least_selected}",
                ))
    return violations


def _follow_lists(order1, order2, ids1, ids2):
    """Mirror the documented list maintenance from the slot's tier membership.

    ids1 and ids2 are the ids the slot lists in each tier. Ids no longer
    listed drop out, crossers join the tail of the other list (only
    1 -> 2 occurs in engine traces; the other direction is tolerated for
    robustness) and newcomers join the tail of theirs in id order.
    Returns the two new lists.
    """
    in1, in2 = set(ids1), set(ids2)
    known = set(order1)
    known.update(order2)
    return ([vid for vid in order1 if vid in in1] + [vid for vid in order2 if vid in in1]
            + sorted(in1.difference(known)),
            [vid for vid in order2 if vid in in2] + [vid for vid in order1 if vid in in2]
            + sorted(in2.difference(known)))


def _rotate(order, selected_ids):
    """The list with its selected ids moved to the tail, in list order."""
    return ([vid for vid in order if vid not in selected_ids]
            + [vid for vid in order if vid in selected_ids])


def write_violations_csv(violations: Sequence[Violation], path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["slot", "rule", "detail"])
        for v in violations:
            writer.writerow([v.slot, v.rule, v.detail])


def write_mismatches_csv(mismatches: Sequence[tuple[int, int, int]], path) -> None:
    """One row per optimum mismatch of `verify_campaign`: instance, achieved, optimum."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["instance", "achieved", "optimum"])
        writer.writerows(mismatches)
