"""Command-line driver: subcommands, exit codes, atomic outputs."""

import csv

import pytest

from gridshare.cli import EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME, build_config, run
from gridshare.policies import POLICY_NAMES
from gridshare.powergrid import CHARGER_PRESETS

TINY_CONFIG = """
# small, fast experiment
days=4
warmup_days=1
last_measured_day=2
arrivals_per_day=80
seeds=1
sdr_grid=1.1
policies=fcfs
"""


@pytest.fixture
def tiny_config(tmp_path):
    path = tmp_path / "experiment.conf"
    path.write_text(TINY_CONFIG)
    return str(path)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# --- simulate ----------------------------------------------------------------


def test_simulate_writes_single_row_outputs(tiny_config, tmp_path, capsys):
    out = tmp_path / "out"
    code = run(["simulate", "--config", tiny_config, "--policy", "minmax-dt",
                "--sdr", "1.1", "--seed", "1", "--out", str(out)])
    assert code == EXIT_OK
    rows = read_rows(out / "fod.csv")
    assert len(rows) == 1
    assert rows[0]["policy"] == "minmax-dt"
    assert 0.0 <= float(rows[0]["fod"]) <= 1.0
    assert (out / "adfd.csv").exists()
    assert (out / "outcomes.csv").exists()
    assert (out / "resolved-config").exists()
    assert (out / "arrival-profile.txt").exists()
    assert (out / "load-shape.txt").exists()
    summary = capsys.readouterr().out
    assert "minmax-dt sdr=1.1 seed=1" in summary


def test_simulate_rejects_sdr_below_one(tiny_config, tmp_path, capsys):
    code = run(["simulate", "--config", tiny_config, "--sdr", "0.9",
                "--out", str(tmp_path / "o")])
    assert code == EXIT_CONFIG
    assert "indefinitely" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_simulate_refuses_a_non_finite_ratio_before_any_output(tmp_path, capsys, value):
    out = tmp_path / "out"
    code = run(["simulate", "--policy", "fcfs", "--seed", "1", "--sdr", value, "--out", str(out)])
    assert code == EXIT_CONFIG
    assert f"sdr_grid must be a finite number, not '{value}'" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_refuses_a_ratio_calibration_cannot_hold_before_any_output(tmp_path, capsys):
    out = tmp_path / "out"
    code = run(["simulate", "--policy", "fcfs", "--seed", "1", "--days", "5", "--sdr", "1e308",
                "--out", str(out)])
    assert code == EXIT_CONFIG
    assert "supply-to-demand ratio 1e+308 is refused" in capsys.readouterr().err
    assert not out.exists()


FLOAT_KEYS = ["arrivals_per_day", "duration_mean_h", "duration_std_h", "duration_min_h",
              "duration_max_h", "one_way_commute_mean_mi", "commute_cap_mi", "extra_daily_mi",
              "emergency_mi", "initial_charge_max_mi", "battery_capacity_miles",
              "peak_other_fraction", "bin_width_min", "sdr_grid"]


@pytest.mark.parametrize("value", ["nan", "-inf"])
@pytest.mark.parametrize("key", FLOAT_KEYS)
def test_bundle_refuses_a_non_finite_float_key(tmp_path, capsys, key, value):
    conf = tmp_path / "experiment.conf"
    conf.write_text(f"{key}={value}\n")
    out = tmp_path / "out"
    assert run(["simulate", "--config", str(conf), "--policy", "fcfs", "--seed", "1",
                "--out", str(out)]) == EXIT_CONFIG
    assert f"{key} must be a finite number, not '{value}'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key, value, message", [
    pytest.param("duration_std_h", "-4", "duration_std_h must be non-negative", id="duration_std_h"),
    pytest.param("bin_width_min", "0", "bin_width_min must be positive, not 0", id="bin_width_min"),
    pytest.param("peak_other_fraction", "1.5", "peak_other_fraction must be in (0, 1), not 1.5",
                 id="peak_other_fraction"),
])
def test_bundle_refuses_an_out_of_range_key_before_any_output(tmp_path, capsys, key, value, message):
    conf = tmp_path / "experiment.conf"
    conf.write_text(f"{key}={value}\n")
    out = tmp_path / "out"
    assert run(["simulate", "--config", str(conf), "--policy", "fcfs", "--seed", "1", "--days", "4",
                "--arrivals-per-day", "200", "--out", str(out)]) == EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_build_config_refuses_a_commute_cap_no_draw_can_meet():
    # Only build_config runs here: a cap that slipped through would hang
    # the fleet's sampler, not fail.
    with pytest.raises(ValueError, match="commute_cap_mi must be positive"):
        build_config({"commute_cap_mi": "0"})
    # A tiny cap is slow to sample but finishes, and without a commute
    # every round trip is 0, which a cap of 0 holds.
    assert build_config({"commute_cap_mi": "0.01"}).base.workload.commute_cap_mi == 0.01
    build_config({"commute_cap_mi": "0", "one_way_commute_mean_mi": "0"})


# These sizes would ask numpy for hundreds of GiB; they are refused first.
@pytest.mark.parametrize("flag, value, message", [
    pytest.param("--days", "100000000", "a horizon of 100000000 days is refused", id="days"),
    pytest.param("--arrivals-per-day", "1e9",
                 "an expected fleet of 15 days x 1e+09 arrivals is refused", id="arrivals"),
])
def test_simulate_refuses_a_size_beyond_the_key_range_before_any_output(
        tmp_path, capsys, flag, value, message):
    out = tmp_path / "out"
    assert run(["simulate", "--policy", "fcfs", "--seed", "1", flag, value,
                "--out", str(out)]) == EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_simulate_requires_single_cell(tiny_config, tmp_path):
    code = run(["simulate", "--config", tiny_config, "--seeds", "1,2",
                "--out", str(tmp_path / "o")])
    assert code == EXIT_CONFIG


def test_unknown_flag_exits_with_usage_error(tiny_config):
    with pytest.raises(SystemExit) as excinfo:
        run(["simulate", "--config", tiny_config, "--frobnicate"])
    assert excinfo.value.code == 2


def test_unknown_config_key_is_config_error(tmp_path, capsys):
    bad = tmp_path / "bad.conf"
    bad.write_text("dayz=4\n")
    code = run(["simulate", "--config", str(bad), "--out", str(tmp_path / "o")])
    assert code == EXIT_CONFIG
    assert "unknown key" in capsys.readouterr().err


def test_missing_profile_file_is_config_error(tiny_config, tmp_path, capsys):
    code = run(["simulate", "--config", tiny_config,
                "--arrival-profile", str(tmp_path / "nope.txt"),
                "--out", str(tmp_path / "o")])
    assert code == EXIT_CONFIG


def test_trace_flag_writes_trace(tiny_config, tmp_path):
    out = tmp_path / "out"
    code = run(["simulate", "--config", tiny_config, "--trace", "--out", str(out)])
    assert code == EXIT_OK
    header = open(out / "trace.csv").readline().strip().split(",")
    assert header[:4] == ["slot", "k", "vehicle_id", "tier"]


# --- sweep ---------------------------------------------------------------


def test_sweep_outputs_and_byte_determinism(tiny_config, tmp_path, capsys):
    out1, out2, in_process = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    argv = ["sweep", "--config", tiny_config, "--policies", "fcfs,minmax-dt",
            "--sdr-grid", "1.1,1.3", "--seeds", "1,2"]
    assert run(argv + ["--workers", "2", "--out", str(out1)]) == EXIT_OK
    assert run(argv + ["--workers", "2", "--out", str(out2)]) == EXIT_OK
    assert run(argv + ["--workers", "1", "--out", str(in_process)]) == EXIT_OK

    for name in ("fod.csv", "adfd.csv", "delaydist.csv",
                 "fig1-fraction-delayed.svg", "fig2-average-delay.svg",
                 "fig3-delay-distribution.svg"):
        a = (out1 / name).read_bytes()
        assert a == (out2 / name).read_bytes(), f"{name} differs between identical runs"
        assert a == (in_process / name).read_bytes(), f"{name} differs between pool and in-process runs"

    rows = read_rows(out1 / "fod.csv")
    assert len(rows) == 2 * 2 * (2 + 1)  # policies x ratios x (seeds + mean)
    summary = capsys.readouterr().out
    assert summary.count("fcfs sdr=") >= 6


def test_sweep_summary_one_line_per_cell(tiny_config, tmp_path, capsys):
    out = tmp_path / "out"
    assert run(["sweep", "--config", tiny_config, "--no-figures",
                "--out", str(out)]) == EXIT_OK
    lines = [l for l in capsys.readouterr().out.splitlines() if "fod=" in l]
    assert len(lines) == 2  # one seed cell plus the averaged row


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_sweep_refuses_a_worker_count_below_one(tiny_config, tmp_path, capsys, workers):
    out = tmp_path / "out"
    code = run(["sweep", "--config", tiny_config, "--workers", workers, "--out", str(out)])
    assert code == EXIT_CONFIG
    assert "at least 1" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_refuses_a_non_integer_thread_variable(tiny_config, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("GRIDSHARE_THREADS", "two")
    out = tmp_path / "out"
    code = run(["sweep", "--config", tiny_config, "--out", str(out)])
    assert code == EXIT_CONFIG
    assert "GRIDSHARE_THREADS" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag, values", [
    ("--seeds", "1,2,1"), ("--sdr-grid", "1.2,1.20"), ("--policies", "fcfs,rr,fcfs")])
def test_sweep_refuses_a_repeated_grid_value(tiny_config, tmp_path, capsys, flag, values):
    out = tmp_path / "out"
    code = run(["sweep", "--config", tiny_config, flag, values, "--out", str(out)])
    assert code == EXIT_CONFIG
    assert "duplicate" in capsys.readouterr().err
    assert not out.exists()


def test_simple_variant_applies_to_uninformed_policies_only(tiny_config, tmp_path):
    # One sweep holds each variant beside its paper policy, under its own name.
    names = ["fcfs", "fcfs-simple", "rr-simple", "fdfs", "fdfs-slack"]
    out = tmp_path / "out"
    code = run(["sweep", "--config", tiny_config, "--policies", ",".join(names),
                "--out", str(out)])
    assert code == EXIT_OK
    for table in ("fod.csv", "adfd.csv"):
        assert {r["policy"] for r in read_rows(out / table)} == set(names)


@pytest.mark.parametrize("name", ["minmax-dt-slack", "fcfs-slack", "minmax-er-simple"])
def test_variant_without_a_behaviour_exits_2(tmp_path, capsys, name):
    out = tmp_path / "out"
    assert run(["simulate", "--policy", name, "--out", str(out)]) == EXIT_CONFIG
    assert f"unknown policy '{name}'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key", ["simple", "fdfs_slack", "derate_13a", "exact_charger_physics"])
def test_bundle_setting_a_removed_switch_exits_2(tiny_config, tmp_path, capsys, key):
    conf = tmp_path / "old.conf"
    conf.write_text(open(tiny_config).read() + f"{key}=false\n")
    out = tmp_path / "out"
    assert run(["simulate", "--config", str(conf), "--out", str(out)]) == EXIT_CONFIG
    assert f"unknown key '{key}'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--simple", "--fdfs-slack", "--derate-13a", "--exact-charger-physics"])
def test_removed_switch_flag_is_a_usage_error(tiny_config, flag):
    with pytest.raises(SystemExit) as exc:
        run(["simulate", "--config", tiny_config, flag])
    assert exc.value.code == EXIT_CONFIG


@pytest.mark.parametrize("command", ["simulate", "sweep", "dump-fleet", "verify"])
def test_help_lists_every_policy_and_charger_name(monkeypatch, capsys, command):
    monkeypatch.setenv("COLUMNS", "60")  # narrow enough to wrap the name lists
    with pytest.raises(SystemExit):
        run([command, "--help"])
    text = capsys.readouterr().out
    for name in (*POLICY_NAMES, *CHARGER_PRESETS):
        assert name in text


@pytest.mark.parametrize("workers", ["1", "2"])
def test_sweep_cell_config_error_exits_2(tmp_path, capsys, workers):
    # 14 vehicles calibrate to K = 0 in every slot of the day.
    code = run(["sweep", "--policies", "fcfs", "--sdr-grid", "1.2", "--seeds", "1", "--days", "8",
                "--arrivals-per-day", "2", "--workers", workers, "--out", str(tmp_path / "o")])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "sweep cell policy=fcfs sdr=1.2 seed=1 failed" in err
    assert "no charger slot" in err


def test_short_horizon_scales_measurement_window(tmp_path):
    out = tmp_path / "out"
    code = run(["simulate", "--policy", "fcfs", "--sdr", "1.2", "--seed", "1",
                "--days", "5", "--arrivals-per-day", "60", "--out", str(out)])
    assert code == EXIT_OK
    text = (out / "resolved-config").read_text()
    assert "days=5" in text
    assert "warmup_days=1" in text
    assert "last_measured_day=4" in text


def test_explicit_window_beats_horizon_scaling(tmp_path, capsys):
    conf = tmp_path / "c.conf"
    conf.write_text("days=6\nwarmup_days=4\nlast_measured_day=5\n"
                    "arrivals_per_day=60\npolicies=fcfs\nsdr_grid=1.2\nseeds=1\n")
    out = tmp_path / "out"
    assert run(["simulate", "--config", str(conf), "--out", str(out)]) == EXIT_OK
    assert "warmup_days=4" in (out / "resolved-config").read_text()


def test_simulate_refuses_a_grid_without_charger_slots(tmp_path, capsys):
    # 14 vehicles calibrate to K = 0 in every slot of the day.
    code = run(["simulate", "--policy", "fcfs", "--sdr", "1.2", "--seed", "1", "--days", "8",
                "--arrivals-per-day", "2", "--out", str(tmp_path / "o")])
    assert code == EXIT_CONFIG
    assert "no charger slot" in capsys.readouterr().err


def test_exact_charger_physics_flag(tiny_config, tmp_path):
    out = tmp_path / "out"
    code = run(["simulate", "--config", tiny_config, "--charger", "home-110-15-exact",
                "--out", str(out)])
    assert code == EXIT_OK
    assert "charger=home-110-15-exact\n" in (out / "resolved-config").read_text()


# --- dump-fleet / verify -------------------------------------------------


def test_dump_fleet_columns(tiny_config, tmp_path):
    out = tmp_path / "out"
    assert run(["dump-fleet", "--config", tiny_config, "--out", str(out)]) == EXIT_OK
    rows = read_rows(out / "fleet.csv")
    assert rows and rows[0].keys() == {
        "id", "arrival_slot", "departure_slot", "required_miles", "initial_miles"
    }


def test_dump_fleet_refuses_several_seeds(tiny_config, tmp_path, capsys):
    out = tmp_path / "out"
    assert run(["dump-fleet", "--config", tiny_config, "--seeds", "1,2", "--out", str(out)]) == EXIT_CONFIG
    assert "exactly one --seed" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("instances", ["-3", "0"])
def test_verify_refuses_fewer_than_one_instance(tiny_config, tmp_path, capsys, instances):
    out = tmp_path / "out"
    code = run(["verify", "--config", tiny_config, "--instances", instances, "--out", str(out)])
    assert code == EXIT_CONFIG
    captured = capsys.readouterr()
    assert "--instances must be at least 1" in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_verify_campaign_clean(tiny_config, tmp_path, capsys):
    out = tmp_path / "out"
    code = run(["verify", "--config", tiny_config, "--policies", "all",
                "--instances", "8", "--oracle-seed", "5", "--out", str(out)])
    assert code == EXIT_OK
    assert "0 audit violation(s), 0 optimum mismatch(es)" in capsys.readouterr().out
    assert read_rows(out / "violations.csv") == []


def test_verify_audit_mode_flags_corruption(tiny_config, tmp_path):
    out = tmp_path / "out"
    assert run(["simulate", "--config", tiny_config, "--trace", "--out", str(out)]) == EXIT_OK
    # Corrupt the freshest trace: flip the first data row's selected bit.
    trace = out / "trace.csv"
    lines = trace.read_text().splitlines()
    fields = lines[1].split(",")
    fields[8] = "0" if fields[8] == "1" else "1"
    lines[1] = ",".join(fields)
    bad = tmp_path / "bad-trace.csv"
    bad.write_text("\n".join(lines) + "\n")

    clean_code = run(["verify", "--config", tiny_config, "--policy", "fcfs",
                      "--audit-trace", str(trace), "--out", str(out)])
    assert clean_code == EXIT_OK
    bad_code = run(["verify", "--config", tiny_config, "--policy", "fcfs",
                    "--audit-trace", str(bad), "--out", str(out)])
    assert bad_code == EXIT_RUNTIME
    assert read_rows(out / "violations.csv")


def test_verify_audit_mode_refuses_a_row_outside_both_tiers(tiny_config, tmp_path, capsys):
    trace_dir = tmp_path / "run"
    assert run(["simulate", "--config", tiny_config, "--trace", "--out", str(trace_dir)]) == EXIT_OK
    lines = (trace_dir / "trace.csv").read_text().splitlines()
    fields = lines[1].split(",")
    fields[3] = "7"
    lines[1] = ",".join(fields)
    bad = tmp_path / "bad-trace.csv"
    bad.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    code = run(["verify", "--config", tiny_config, "--policy", "fcfs",
                "--audit-trace", str(bad), "--out", str(out)])
    assert code == EXIT_CONFIG
    assert "bad-trace.csv:2: tier must be 1 or 2" in capsys.readouterr().err
    assert not out.exists()


# --- resolved config round trip -------------------------------------------


DEFAULT_RESOLVED_CONFIG = """\
# effective configuration; rerun with --config to reproduce
arrival_profile={out}/arrival-profile.txt
arrivals_per_day=1500
battery_capacity_miles=100
bin_width_min=30
charger=home-110-15
commute_cap_mi=70
days=15
duration_max_h=22
duration_mean_h=14
duration_min_h=6
duration_std_h=4
emergency_mi=10
extra_daily_mi=20
initial_charge_max_mi=30
last_measured_day=13
load_shape={out}/load-shape.txt
one_way_commute_mean_mi=14.5
out={out}
peak_other_fraction=0.8
policies=fcfs
sdr_grid=1.2
seeds=1
trace=false
warmup_days=4
"""


def test_default_simulate_resolved_config_text(tmp_path):
    out = tmp_path / "out"
    assert run(["simulate", "--policy", "fcfs", "--sdr", "1.2", "--seed", "1",
                "--out", str(out)]) == EXIT_OK
    assert (out / "resolved-config").read_text() == DEFAULT_RESOLVED_CONFIG.format(out=out)



@pytest.mark.parametrize("single, plural, value, other", [
    ("--policy", "--policies", "fcfs", "rr"),
    ("--sdr", "--sdr-grid", "2", "3"),
    ("--seed", "--seeds", "1", "5"),
])
def test_flag_pair_is_two_spellings_of_one_key(tmp_path, single, plural, value, other):
    # Both spellings write the same resolved-config, and the last one given wins.
    texts = set()
    one_seed = [] if single == "--seed" else ["--seed", "1"]  # dump-fleet writes one seed's fleet
    for i, flags in enumerate(([single, value], [plural, value],
                               [plural, other, single, value], [single, other, plural, value])):
        out = tmp_path / str(i)
        argv = ["dump-fleet", *one_seed, *flags, "--days", "4", "--arrivals-per-day", "80",
                "--out", str(out)]
        assert run(argv) == EXIT_OK
        texts.add((out / "resolved-config").read_text().replace(str(out), "OUT"))
    assert len(texts) == 1


def test_resolved_config_reproduces_run(tiny_config, tmp_path):
    out1 = tmp_path / "first"
    assert run(["simulate", "--config", tiny_config, "--out", str(out1)]) == EXIT_OK
    resolved = out1 / "resolved-config"

    out2 = tmp_path / "second"
    assert run(["simulate", "--config", str(resolved), "--out", str(out2)]) == EXIT_OK
    assert (out1 / "fod.csv").read_bytes() == (out2 / "fod.csv").read_bytes()
    assert (out1 / "outcomes.csv").read_bytes() == (out2 / "outcomes.csv").read_bytes()


def test_resolved_config_contains_every_key(tiny_config, tmp_path):
    out = tmp_path / "out"
    assert run(["simulate", "--config", tiny_config, "--out", str(out)]) == EXIT_OK
    text = (out / "resolved-config").read_text()
    for key in ("days", "one_way_commute_mean_mi", "charger", "policies",
                "sdr_grid", "seeds", "arrival_profile", "load_shape", "out"):
        assert f"{key}=" in text
