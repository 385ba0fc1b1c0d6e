"""Golden outputs: pinned SHA-256 digests of one short cell per policy variant.

Each case runs `gridshare simulate` for six days at a tight supply ratio
and compares the digests of fod.csv, adfd.csv and outcomes.csv with the
ones recorded when the test was added. A change to the engine, the
policies or the metrics that moves any output byte fails here. The
dryer charger and the exact household rate cover charge rates that are
not a power of two. Three cases (`rr`, `minmax-er`, `fcfs-simple`) are
pinned again at a supply ratio of 2.0, cells and traces, where much of
a traced run's charging is top-off and batteries fill up.

A second set pins the digest of trace.csv for a small traced cell of
each differential-test variant, so the order of trace rows (the
rotation list of round robin, the join order of the top-off list) is
held as well as the outputs. The same run's trace, as the groups the
engine hands its trace sink, must pass the independent trace audit, so
a digest re-recorded on purpose cannot carry a wrong selection along;
and a smaller traced cell of each variant must read back from its
trace.csv as exactly those groups. A third pins the generated fleet
itself (`dump-fleet`'s fleet.csv) for two chargers, so a change to the
workload's draws shows apart from any change downstream. A fourth pins
a short sweep of every variant (fod.csv, adfd.csv and delaydist.csv),
whose cells stop once their last measured vehicle has left; most of
its cells have measured vehicles that leave late. A fifth pins one
default-scale cell (about 22.4k vehicles), whose ids and slots reach
five digits in outcomes.csv.
"""

import functools
import hashlib

import pytest

from gridshare import engine, metrics
from gridshare.cli import EXIT_OK, run
from gridshare.oracle import audit_trace, read_trace
from gridshare.policies import parse_policy

from test_differential import VARIANTS

FILES = ("fod.csv", "adfd.csv", "outcomes.csv")


CASES = {
    **{policy.name: ["--policy", policy.name] for policy in VARIANTS},
    "minmax-er-charger-dryer-220-30": ["--policy", "minmax-er", "--charger", "dryer-220-30"],
    "minmax-dt-exact-charger-physics": ["--policy", "minmax-dt", "--charger", "home-110-15-exact"],
    # Much of a traced run's charging is top-off here, and batteries fill up.
    **{f"{name}-sdr-2.0": ["--policy", name, "--sdr", "2.0"] for name in ("rr", "minmax-er", "fcfs-simple")},
}

# case -> (fod.csv, adfd.csv, outcomes.csv) digests, truncated to 16 hex digits.
GOLDEN = {
    "fcfs": ("19461ddadb98cd1b", "ccdb33af4c357ef8", "f8d425f67eb36275"),
    "fdfs": ("d7c8374514681965", "44669f67b4313033", "f5c471b0c592bdc4"),
    "rr": ("d8e5594046affafd", "87a0848b53fd9a13", "960e01de096ebaa9"),
    "minmax-er": ("232babe535369853", "7cdaf2020e644d13", "8fc303022240a508"),
    "minmax-dt": ("a94277ccda591c30", "df4385be35ae6ca3", "a8baabd574e20092"),
    "fcfs-simple": ("8298bfea74d2c36d", "98949e65cea4b871", "e53a0ed3234cf8ba"),
    "rr-simple": ("7a9c871f34137f59", "178dceea1a6c29e2", "09ba62e0bc8499ba"),
    "fdfs-slack": ("30988bf2d5820b2e", "48c6346ce8c85231", "c4c9447d28423b77"),
    "minmax-er-charger-dryer-220-30": ("232babe535369853", "a2e45f27975db8b8", "8bf03a19cc8bb738"),
    "minmax-dt-exact-charger-physics": ("c55d6857600ba29d", "2b4b8055b1cfac73", "cf63a6c537e3d75c"),
    "rr-sdr-2.0": ("5cba752aa9084c8d", "1d59e5fdb09fe016", "0cc183cfaac8919a"),
    "minmax-er-sdr-2.0": ("2981a8876c9db454", "3b9dd4c3ca313fb9", "3523531800ae7ce6"),
    "fcfs-simple-sdr-2.0": ("f6b0e0ed9632b5e9", "92c05722cbae9eea", "9bbb13cc34dd17df"),
}


def digests(tmp_path, flags):
    # The case's flags come last, so a case can set its own ratio.
    argv = ["simulate", "--sdr", "1.0", "--seed", "3", "--days", "6", *flags, "--out", str(tmp_path)]
    assert run(argv) == EXIT_OK
    return tuple(hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()[:16] for name in FILES)


@pytest.mark.parametrize("case", list(CASES))
def test_outputs_match_golden_digests(tmp_path, case):
    assert digests(tmp_path, CASES[case]) == GOLDEN[case]



# variant case -> trace.csv digest of a four-day traced cell, truncated to 16 hex digits.
TRACE_GOLDEN = {
    "fcfs": "7a08af99f47f9d9b",
    "fdfs": "fba616f34e91c936",
    "rr": "df05e9087994e423",
    "minmax-er": "95605aca7014dde2",
    "minmax-dt": "20c2476d488f37e5",
    "fcfs-simple": "3908ef0052c800ee",
    "rr-simple": "5668e990156b162e",
    "fdfs-slack": "8c5298be1d01655c",
}


# policy -> trace.csv digest of the same traced cell at supply ratio 2.0.
TOPOFF_TRACE_GOLDEN = {
    "rr": "70c5889b45cec38b",
    "minmax-er": "dbf4e8e439c47896",
    "fcfs-simple": "b24dcae3108ed675",
}


def traced_cell(monkeypatch, tmp_path, case, arrivals_per_day, sdr):
    """Run a four-day traced cell; return its trace.csv and the groups the engine handed its sink."""
    groups = []
    monkeypatch.setattr(metrics, "run_simulation",
                        functools.partial(engine.run_simulation, trace_sink=groups.append))
    argv = ["simulate", *CASES[case], "--trace", "--days", "4", "--arrivals-per-day",
            arrivals_per_day, "--sdr", sdr, "--seed", "3", "--out", str(tmp_path)]
    assert run(argv) == EXIT_OK
    assert groups
    return tmp_path / "trace.csv", groups


@pytest.mark.parametrize("case", list(TRACE_GOLDEN))
def test_trace_matches_golden_digest(monkeypatch, tmp_path, case):
    trace, groups = traced_cell(monkeypatch, tmp_path, case, "100", "1.0")
    digest = hashlib.sha256(trace.read_bytes()).hexdigest()[:16]
    assert digest == TRACE_GOLDEN[case]
    assert audit_trace(groups, parse_policy(case)) == []


@pytest.mark.parametrize("case", list(TOPOFF_TRACE_GOLDEN))
def test_topoff_trace_matches_golden_digest(monkeypatch, tmp_path, case):
    trace, groups = traced_cell(monkeypatch, tmp_path, case, "100", "2.0")
    digest = hashlib.sha256(trace.read_bytes()).hexdigest()[:16]
    assert digest == TOPOFF_TRACE_GOLDEN[case]
    assert audit_trace(groups, parse_policy(case)) == []


@pytest.mark.parametrize("case", list(TRACE_GOLDEN))
def test_trace_reads_back_as_the_engine_groups(monkeypatch, tmp_path, case):
    # Every row, tier, list order and selected flag survives the CSV.
    trace, groups = traced_cell(monkeypatch, tmp_path, case, "20", "1.5")
    assert read_trace(trace) == groups


# case -> (charger flags, fleet.csv digest of `dump-fleet --seed 3 --days 6`, truncated to 16 hex digits).
FLEET_GOLDEN = {
    "default-charger": ([], "bc200c28cbf0c44d"),
    "charger-dryer-220-30": (["--charger", "dryer-220-30"], "bbbb89a1f574d324"),
}


@pytest.mark.parametrize("case", list(FLEET_GOLDEN))
def test_fleet_matches_golden_digest(tmp_path, case):
    flags, want = FLEET_GOLDEN[case]
    argv = ["dump-fleet", *flags, "--seed", "3", "--days", "6", "--out", str(tmp_path)]
    assert run(argv) == EXIT_OK
    assert hashlib.sha256((tmp_path / "fleet.csv").read_bytes()).hexdigest()[:16] == want


# The sweep's argv and its (fod.csv, adfd.csv, delaydist.csv) digests, truncated to 16 hex digits.
SWEEP_ARGV = ["sweep", "--policies", "fcfs,fdfs,rr,minmax-er,minmax-dt,fcfs-simple,rr-simple,fdfs-slack",
              "--sdr-grid", "1.0,1.05,2.0", "--seeds", "1", "--days", "4", "--arrivals-per-day", "200",
              "--workers", "1", "--no-figures"]
SWEEP_FILES = ("fod.csv", "adfd.csv", "delaydist.csv")
SWEEP_GOLDEN = ("0318c19df8470aba", "5a85c6b04891dddc", "162b1fcb69fb55af")


def test_sweep_outputs_match_golden_digests(tmp_path, capsys):
    assert run([*SWEEP_ARGV, "--out", str(tmp_path)]) == EXIT_OK
    got = tuple(hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()[:16] for name in SWEEP_FILES)
    assert got == SWEEP_GOLDEN


# One default-scale `simulate` cell and its (fod.csv, adfd.csv, outcomes.csv) digests, truncated to
# 16 hex digits; they are also perfbench/digests.json's cell-dt-tight entries for seed 7.
DEFAULT_SCALE_ARGV = ["simulate", "--policy", "minmax-dt", "--sdr", "1.05", "--seed", "7"]
DEFAULT_SCALE_GOLDEN = ("ae7f4ffd7f26c573", "0a2722ead2abccee", "2a1e820bc6e9cb0d")


def test_default_scale_cell_matches_golden_digests(tmp_path):
    assert run([*DEFAULT_SCALE_ARGV, "--out", str(tmp_path)]) == EXIT_OK
    got = tuple(hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()[:16] for name in FILES)
    assert got == DEFAULT_SCALE_GOLDEN
