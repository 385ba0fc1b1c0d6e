"""Brute-force optimum and trace auditing."""

import re

import numpy as np
import pytest

from gridshare.engine import csv_trace_sink
from gridshare.oracle import (
    Violation,
    audit_trace,
    brute_force_min_max_delay,
    max_delay,
    random_tiny_instance,
    read_trace,
    run_policy_on_instance,
    tiny_instance,
    verify_campaign,
    write_violations_csv,
)
from gridshare.policies import _keys, parse_policy

ALL_POLICIES = [parse_policy(n) for n in ("fcfs", "fdfs", "rr", "minmax-er", "minmax-dt")]


# --- brute force -------------------------------------------------------------


def test_ample_capacity_means_zero_delay():
    inst = tiny_instance([(0, 5, 3), (1, 6, 4), (2, 9, 5)], [3])
    assert brute_force_min_max_delay(inst) == 0


def test_single_vehicle_closed_form():
    for arrival, dep, need in [(0, 4, 9), (2, 10, 3), (1, 3, 8)]:
        inst = tiny_instance([(arrival, dep, need)], [1])
        expected = max(need - (dep - arrival), 0)
        assert brute_force_min_max_delay(inst) == expected


def test_two_vehicle_contention_example():
    inst = tiny_instance([(0, 2, 2), (0, 3, 2)], [1])
    assert brute_force_min_max_delay(inst) == 1


def test_brute_force_respects_arrivals():
    # Capacity before arrival cannot be banked.
    inst = tiny_instance([(5, 7, 4)], [1])
    assert brute_force_min_max_delay(inst) == 2


def test_zero_capacity_profile_rejected():
    with pytest.raises(ValueError, match="no capacity"):
        brute_force_min_max_delay(tiny_instance([(0, 3, 2)], [0]))


def test_search_budget_guard():
    inst = tiny_instance(
        [(0, 10, 6), (1, 11, 6), (2, 12, 6), (3, 13, 6), (4, 14, 6)], [2, 1, 2]
    )
    with pytest.raises(RuntimeError, match="too large"):
        brute_force_min_max_delay(inst, branch_budget=25)


def test_instance_size_limits():
    with pytest.raises(ValueError):
        tiny_instance([(0, 5, 1)] * 6, [1])
    with pytest.raises(ValueError):
        tiny_instance([(40, 45, 1)], [1])


def scalar_tiny_instance(rng, constant_k):
    """random_tiny_instance written as one scalar draw per value."""
    specs = []
    for _ in range(int(rng.integers(2, 6))):
        arrival = int(rng.integers(0, 10))
        need = int(rng.integers(0, 7))
        stay = int(rng.integers(1, 15))
        specs.append((arrival, arrival + stay, need))
    if constant_k:
        k_profile = [int(rng.integers(1, 4))]
    else:
        cycle = int(rng.integers(3, 9))
        k_profile = [int(rng.integers(0, 4)) for _ in range(cycle)]
        if sum(k_profile) == 0:
            k_profile[int(rng.integers(0, cycle))] = 1
    return tiny_instance(specs, k_profile, topoff_extra=float(rng.choice([0.0, 2.0])))


@pytest.mark.parametrize("seed", [1, 2024])
def test_random_tiny_instances_take_the_scalar_draws(seed):
    # The same instances, and the generator left in the same state, as
    # drawing each value on its own: verify's campaigns stay as they were.
    rng, scalar_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    for i in range(300):
        constant = i % 3 == 0
        assert random_tiny_instance(rng, constant_k=constant) == scalar_tiny_instance(
            scalar_rng, constant), i
    assert rng.bit_generator.state == scalar_rng.bit_generator.state


def test_bounded_search_returns_the_optimum_capped_at_the_bound():
    # Pruning at the bound must never change a result below it, on
    # steady and cycling instances alike.
    rng = np.random.default_rng(16)
    for i in range(1000):
        inst = random_tiny_instance(rng, constant_k=i % 2 == 0)
        optimum = brute_force_min_max_delay(inst)
        for bound in (optimum, optimum + 1, int(rng.integers(0, 12))):
            assert brute_force_min_max_delay(inst, bound=bound) == min(optimum, bound), (i, bound)


# --- engine-vs-oracle --------------------------------------------------------


def test_min_max_delay_policy_achieves_optimum_on_examples():
    for specs, ks in [
        ([(0, 2, 2), (0, 3, 2)], [1]),
        ([(0, 6, 4), (2, 7, 3), (3, 8, 2)], [1, 2]),
        ([(0, 4, 2), (0, 4, 2), (1, 5, 3)], [2, 0]),
    ]:
        inst = tiny_instance(specs, ks)
        outcomes = run_policy_on_instance(inst, parse_policy("minmax-dt"))
        assert max_delay(outcomes) == brute_force_min_max_delay(inst)


def test_randomized_campaign_smoke(tmp_path):
    rng = np.random.default_rng(99)
    dt_kind = parse_policy("minmax-dt").kind
    for i in range(40):
        # Steady capacity: largest-delay-first provably hits the optimum.
        constant = i % 2 == 0
        inst = random_tiny_instance(rng, constant_k=constant)
        optimum = brute_force_min_max_delay(inst)
        for policy in ALL_POLICIES:
            trace = tmp_path / "trace.csv"
            outcomes = run_policy_on_instance(inst, policy, trace_path=trace)
            violations = audit_trace(read_trace(trace), policy)
            assert violations == [], f"instance {i} {policy.name}: {violations[:3]}"
            achieved = max_delay(outcomes)
            assert achieved >= optimum  # nobody beats the exhaustive optimum
            if constant and policy.kind is dt_kind:
                assert achieved == optimum, f"instance {i}"


def test_verify_campaign_reports_a_wrong_selection(monkeypatch, tmp_path):
    import gridshare.engine as engine_mod

    def lowest_priority(policy, state, t, k):
        # As many vehicles as the real select, but from the back of each tier.
        ranks = [rank for tier in (state.deficit, state.topoff)
                 for rank in tier[np.argsort(_keys(state, tier, t))[::-1]].tolist()]
        return np.array(ranks[:k], dtype=np.int64)

    monkeypatch.setattr(engine_mod, "select", lowest_priority)
    violations, mismatches = verify_campaign(
        ALL_POLICIES, np.random.default_rng(3), 40, 20, tmp_path / "trace.csv")
    # The prefix the CLI writes to violations.csv and the benchmark parses.
    prefix = re.compile(r"^(varying )?instance (\d+) policy (\S+): ")
    found = [prefix.match(v.detail) for v in violations]
    assert found and all(found)
    steady = {int(m[2]) for m in found if not m[1]}
    cycling = {int(m[2]) for m in found if m[1]}
    assert steady and max(steady) < 40
    assert cycling and max(cycling) < 20
    assert {m[3] for m in found} <= {p.name for p in ALL_POLICIES}
    assert mismatches
    for index, achieved, optimum in mismatches:
        assert 0 <= index < 40 and achieved > optimum


def _flipped_selection(fh):
    write = csv_trace_sink(fh)
    return lambda group: write((group[0], group[1],
                                [row._replace(selected=not row.selected) for row in group[2]]))


def _garbled(fh):
    return lambda group: fh.write("garbled\r\n")


@pytest.mark.parametrize("corrupt", [_flipped_selection, _garbled])
def test_verify_campaign_reports_a_trace_that_reads_back_differently(monkeypatch, tmp_path, corrupt):
    import gridshare.engine as engine_mod

    monkeypatch.setattr(engine_mod, "csv_trace_sink", corrupt)
    trace = tmp_path / "trace.csv"
    violations, mismatches = verify_campaign(ALL_POLICIES, np.random.default_rng(3), 4, 2, trace)
    # Only each policy's run on the first steady instance writes a file;
    # every run is audited from the engine's own groups, which stay clean.
    assert [(v.rule, v.detail.split(":")[0]) for v in violations] == [
        ("trace-roundtrip", f"instance 0 policy {policy.name}") for policy in ALL_POLICIES]
    assert not mismatches
    assert not trace.exists()


def test_cycling_zero_capacity_slots_can_defeat_online_lookahead():
    # With zero-capacity gaps the charged-every-slot delay estimate is
    # optimistic, so the online policy can miss the hindsight optimum;
    # this pins the known counterexample shape.
    inst = tiny_instance([(7, 11, 2), (2, 8, 2), (9, 16, 5), (2, 10, 0)], [1, 0, 3],
                         topoff_extra=2.0)
    optimum = brute_force_min_max_delay(inst)
    achieved = max_delay(run_policy_on_instance(inst, parse_policy("minmax-dt")))
    assert optimum == 1
    assert achieved == 2


# --- audit -------------------------------------------------------------------


@pytest.fixture
def clean_trace(tmp_path):
    inst = tiny_instance([(0, 6, 4), (1, 7, 5), (2, 9, 3)], [1, 2], topoff_extra=2.0)
    path = tmp_path / "trace.csv"
    run_policy_on_instance(inst, parse_policy("fcfs"), trace_path=path)
    return path


def test_audit_accepts_clean_trace(clean_trace):
    assert audit_trace(read_trace(clean_trace), parse_policy("fcfs")) == []


def test_audit_flags_swapped_selection(clean_trace, tmp_path):
    rows = clean_trace.read_text().splitlines()
    header, body = rows[0], rows[1:]
    # Find a slot with both a selected and an unselected row and swap them.
    by_slot = {}
    for i, line in enumerate(body):
        fields = line.split(",")
        by_slot.setdefault(fields[0], []).append((i, fields))
    corrupted = None
    for slot, entries in by_slot.items():
        sel = [e for e in entries if e[1][8] == "1"]
        unsel = [e for e in entries if e[1][8] == "0"]
        if sel and unsel:
            i, f1 = sel[0]
            j, f2 = unsel[0]
            f1[8], f2[8] = "0", "1"
            body[i] = ",".join(f1)
            body[j] = ",".join(f2)
            corrupted = slot
            break
    assert corrupted is not None, "trace has no contended slot"
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join([header] + body) + "\n")
    violations = audit_trace(read_trace(bad), parse_policy("fcfs"))
    assert len(violations) == 1
    assert violations[0].rule == "key-ordering"
    assert violations[0].slot == int(corrupted)


def test_audit_flags_wrong_counts(clean_trace, tmp_path):
    rows = clean_trace.read_text().splitlines()
    fields = rows[1].split(",")
    fields[8] = "0" if fields[8] == "1" else "1"
    rows[1] = ",".join(fields)
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(rows) + "\n")
    rules = {v.rule for v in audit_trace(read_trace(bad), parse_policy("fcfs"))}
    assert "work-conservation" in rules


def test_audit_flags_inconsistent_delay_column(clean_trace, tmp_path):
    rows = clean_trace.read_text().splitlines()
    fields = rows[1].split(",")
    fields[7] = str(int(fields[7]) + 3)
    rows[1] = ",".join(fields)
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(rows) + "\n")
    rules = [v.rule for v in audit_trace(read_trace(bad), parse_policy("fcfs"))]
    assert "row-consistency" in rules


def test_malformed_trace_reports_line_number(tmp_path):
    path = tmp_path / "broken.csv"
    path.write_text(
        "slot,k,vehicle_id,tier,arrival_slot,expected_departure_slot,"
        "intervals_needed,delay_if_continuous,selected\n0,1,7,1,0,5,3,-2,one\n"
    )
    with pytest.raises(ValueError, match=":2"):
        audit_trace(read_trace(str(path)), parse_policy("fcfs"))


def test_trace_reader_groups_slots(clean_trace):
    slots = read_trace(clean_trace)
    assert all(slots[i][0] <= slots[i + 1][0] for i in range(len(slots) - 1))
    assert all(rows for _, _, rows in slots)


def test_violation_csv_writer(tmp_path):
    path = tmp_path / "violations.csv"
    write_violations_csv([Violation(slot=4, rule="tier-ordering", detail="x")], path)
    text = path.read_text().splitlines()
    assert text[0] == "slot,rule,detail"
    assert text[1].startswith("4,tier-ordering")


# --- one mutation per audit rule ---------------------------------------------
#
# Each case runs a small instance through the engine, collects its
# in-memory trace, changes one slot group and checks which rules the audit
# reports. The instance has contended deficit slots, a slot where the
# deficit tier is taken whole beside a waiting top-off vehicle, and slots
# where every candidate charges.

RULE_INSTANCE = tiny_instance(
    [(0, 4, 3), (0, 6, 1), (1, 3, 4), (1, 8, 0), (3, 9, 2)], [2, 1, 1], topoff_extra=2.0)


def _engine_groups(policy):
    groups = []
    run_policy_on_instance(RULE_INSTANCE, policy, trace_sink=groups.append)
    assert audit_trace(groups, policy) == []
    return groups


def _tiers(rows):
    return [r for r in rows if r.tier == 1], [r for r in rows if r.tier == 2]


def _first_group(groups, fits):
    """Index of the first group whose (k, rows) fits; the instance must have one."""
    index = next((i for i, (_, k, rows) in enumerate(groups) if fits(k, rows)), None)
    assert index is not None, "the rule instance has no slot of the needed shape"
    return index


def _flip(rows, *flipped):
    """rows with the selected flag of each row in flipped inverted."""
    ids = {r.vehicle_id for r in flipped}
    return [r._replace(selected=not r.selected) if r.vehicle_id in ids else r for r in rows]


def _contended(k, rows):
    tier1, _ = _tiers(rows)
    return 0 < sum(r.selected for r in tier1) < len(tier1)


def _fcfs_order(row):
    return (row.arrival_slot, row.vehicle_id)


def _duplicate_row(groups):
    i = _first_group(groups, lambda k, rows: True)
    slot, k, rows = groups[i]
    groups[i] = (slot, k, rows + rows[:1])
    return slot


def _wrong_delay_column(groups):
    i = _first_group(groups, lambda k, rows: True)
    slot, k, rows = groups[i]
    groups[i] = (slot, k, [rows[0]._replace(delay_if_continuous=rows[0].delay_if_continuous + 3)]
                 + rows[1:])
    return slot


def _lower_k(groups):
    # Every candidate charges; with one charger fewer, one too many did.
    i = _first_group(groups, lambda k, rows: len(rows) > 1 and all(r.selected for r in rows))
    slot, _, rows = groups[i]
    groups[i] = (slot, len(rows) - 1, rows)
    return slot


def _topoff_before_deficit(groups):
    # The deficit tier is taken whole and the top-off tier waits: the last
    # deficit vehicle (in key order) gives its charger to the first
    # top-off vehicle, so each tier stays in key order.
    def fits(k, rows):
        tier1, tier2 = _tiers(rows)
        return tier1 and tier2 and all(r.selected for r in tier1) and not any(
            r.selected for r in tier2)
    i = _first_group(groups, fits)
    slot, k, rows = groups[i]
    tier1, tier2 = _tiers(rows)
    groups[i] = (slot, k, _flip(rows, max(tier1, key=_fcfs_order), min(tier2, key=_fcfs_order)))
    return slot


def _swap_in_deficit_tier(groups):
    i = _first_group(groups, _contended)
    slot, k, rows = groups[i]
    tier1, _ = _tiers(rows)
    groups[i] = (slot, k, _flip(rows, next(r for r in tier1 if r.selected),
                                next(r for r in tier1 if not r.selected)))
    return slot


def _serve_a_lesser_delay(groups):
    # A charged deficit vehicle trades places with a waiting one whose
    # delay if charged continuously is smaller.
    def pair(rows):
        tier1, _ = _tiers(rows)
        return next(((s, u) for s in tier1 if s.selected for u in tier1
                     if not u.selected and u.delay_if_continuous < s.delay_if_continuous), None)
    i = _first_group(groups, lambda k, rows: pair(rows) is not None)
    slot, k, rows = groups[i]
    groups[i] = (slot, k, _flip(rows, *pair(rows)))
    return slot


# rule -> (policy, mutation, rules the mutated trace must report). For
# minmax-dt the priority key is the delay column itself, so a delay
# served out of order is a key-ordering fault too: dt-dominance states
# the same rule a second time, from the column alone.
RULE_MUTATIONS = {
    "duplicate-row": ("fcfs", _duplicate_row, {"duplicate-row"}),
    "row-consistency": ("fcfs", _wrong_delay_column, {"row-consistency"}),
    "work-conservation": ("fcfs", _lower_k, {"work-conservation"}),
    "tier-ordering": ("fcfs", _topoff_before_deficit, {"tier-ordering"}),
    "key-ordering": ("fcfs", _swap_in_deficit_tier, {"key-ordering"}),
    "rr-rotation": ("rr", _swap_in_deficit_tier, {"rr-rotation"}),
    "dt-dominance": ("minmax-dt", _serve_a_lesser_delay, {"key-ordering", "dt-dominance"}),
}


@pytest.mark.parametrize("rule", list(RULE_MUTATIONS))
def test_each_audit_rule_catches_its_mutation(rule):
    name, mutate, expected = RULE_MUTATIONS[rule]
    policy = parse_policy(name)
    groups = _engine_groups(policy)
    slot = mutate(groups)
    violations = audit_trace(groups, policy)
    assert {v.rule for v in violations} == expected
    first = [v for v in violations if v.rule == rule][0]
    assert first.slot == slot
    # A fault in one slot group is reported there, and the rules other
    # than the rotation check carry no state into later slots.
    if rule != "rr-rotation":
        assert {v.slot for v in violations} == {slot}


@pytest.mark.parametrize("column, value", [(3, "7"), (8, "2")], ids=["tier", "selected"])
def test_trace_reader_refuses_a_row_outside_both_tiers(tmp_path, column, value):
    # Relabelled tier 7, the waiting deficit row of a contended fcfs slot
    # would be filed in neither tier and escape every ordering rule; the
    # reader refuses it, or a selected flag other than 0 or 1, naming the
    # line.
    path = tmp_path / "trace.csv"
    groups = []
    run_policy_on_instance(RULE_INSTANCE, parse_policy("fcfs"), trace_path=path,
                           trace_sink=groups.append)
    slot, _, rows = groups[_first_group(groups, _contended)]
    waiting = next(r for r in _tiers(rows)[0] if not r.selected)
    lines = path.read_text().splitlines()
    lineno = 1 + next(i for i, line in enumerate(lines)
                      if line.startswith(f"{slot},") and line.split(",")[2] == str(waiting.vehicle_id))
    fields = lines[lineno - 1].split(",")
    fields[column] = value
    lines[lineno - 1] = ",".join(fields)
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=f"bad.csv:{lineno}: tier must be 1 or 2"):
        read_trace(bad)
