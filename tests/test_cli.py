"""Command-line driver: subcommands, exit codes, atomic outputs."""

import builtins
import csv
import io
import os

import pytest

from conftest import make_test_vehicle
from gridshare import engine, figures, metrics, oracle
from gridshare.cli import EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME, RUN_FILES, build_config, run
from gridshare.policies import POLICY_NAMES, parse_policy
from gridshare.powergrid import CHARGER_PRESETS
from gridshare.workload import Fleet

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
    assert not (tmp_path / "o").exists()


def test_simulate_drains_stays_longer_than_sixty_days(tmp_path, capsys):
    # Stays of 1500-1520 hours (about 63 days): the give-up cap counts 60
    # days from the day of the last expected departure, so a run that
    # drains is not stopped 60 days after the day of the last arrival.
    conf = tmp_path / "experiment.conf"
    conf.write_text("days=4\narrivals_per_day=20\n"
                    "duration_min_h=1500\nduration_mean_h=1510\nduration_max_h=1520\n")
    out = tmp_path / "out"
    assert run(["simulate", "--config", str(conf), "--policy", "fcfs", "--sdr", "1.2", "--seed", "1",
                "--out", str(out)]) == EXIT_OK
    assert "fcfs sdr=1.2 seed=1" in capsys.readouterr().out
    rows = read_rows(out / "outcomes.csv")
    last_arrival_day = max(int(row["arrival_slot"]) for row in rows) // 288
    assert max(int(row["actual_departure_slot"]) for row in rows) > (last_arrival_day + 61) * 288


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
    pytest.param("bin_width_min", "4.99", "bin_width_min must be at least one slot (5 minutes), not 4.99",
                 id="bin_width_min-below-a-slot"),
    pytest.param("peak_other_fraction", "1.5", "peak_other_fraction must be in (0, 1), not 1.5",
                 id="peak_other_fraction"),
    pytest.param("warmup_days", "-1", "warmup_days must be 0 or more, not -1", id="warmup_days"),
])
def test_bundle_refuses_an_out_of_range_key_before_any_output(tmp_path, capsys, key, value, message):
    conf = tmp_path / "experiment.conf"
    conf.write_text(f"{key}={value}\n")
    out = tmp_path / "out"
    assert run(["simulate", "--config", str(conf), "--policy", "fcfs", "--sdr", "1.2", "--seed", "1", "--days", "4",
                "--arrivals-per-day", "200", "--out", str(out)]) == EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert not out.exists()


# These would fail on every drawn fleet, so they are refused before
# the run context is written.
def test_simulate_refuses_zero_arrivals_per_day_before_any_output(tmp_path, capsys):
    out = tmp_path / "out"
    assert run(["simulate", "--policy", "fcfs", "--sdr", "1.2", "--seed", "1", "--days", "4",
                "--arrivals-per-day", "0", "--out", str(out)]) == EXIT_CONFIG
    assert "arrivals_per_day must be positive, not 0" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_refuses_allowances_above_the_battery_capacity_before_any_output(tmp_path, capsys):
    conf = tmp_path / "experiment.conf"
    # The initial charge stays under the battery, so only the requirement fails.
    conf.write_text("battery_capacity_miles=25\ninitial_charge_max_mi=20\n")
    out = tmp_path / "out"
    assert run(["simulate", "--config", str(conf), "--policy", "fcfs", "--sdr", "1.2", "--seed", "1",
                "--days", "4", "--out", str(out)]) == EXIT_CONFIG
    assert ("extra_daily_mi + emergency_mi (20 + 10) exceeds battery_capacity_miles (25)"
            in capsys.readouterr().err)
    assert not out.exists()


def test_simulate_refuses_a_workload_that_needs_no_charge_before_any_output(tmp_path, capsys):
    conf = tmp_path / "experiment.conf"
    conf.write_text("one_way_commute_mean_mi=0\nextra_daily_mi=0\nemergency_mi=0\n")
    out = tmp_path / "out"
    assert run(["simulate", "--config", str(conf), "--policy", "fcfs", "--sdr", "1.2", "--seed", "1",
                "--days", "4", "--out", str(out)]) == EXIT_CONFIG
    assert "are all 0: no vehicle would need charge" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag, lines", [("--arrival-profile", 24), ("--load-shape", 288)])
def test_simulate_refuses_a_non_finite_curve_value_before_any_output(tmp_path, capsys, flag, lines):
    curve = tmp_path / "curve.txt"
    curve.write_text("1\n" * (lines - 1) + "nan\n")
    out = tmp_path / "out"
    assert run(["simulate", "--policy", "fcfs", "--sdr", "1.2", "--seed", "1", "--days", "4",
                flag, str(curve), "--out", str(out)]) == EXIT_CONFIG
    assert f"curve.txt:{lines}: not a finite number: 'nan'" in capsys.readouterr().err
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


def test_simulate_refuses_a_negative_seed_before_any_output(tiny_config, tmp_path, capsys):
    out = tmp_path / "out"
    assert run(["simulate", "--config", tiny_config, "--seed", "-1", "--out", str(out)]) == EXIT_CONFIG
    assert "seeds must be 0 or more, not -1" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_requires_single_cell(tiny_config, tmp_path):
    code = run(["simulate", "--config", tiny_config, "--seeds", "1,2",
                "--out", str(tmp_path / "o")])
    assert code == EXIT_CONFIG
    assert not (tmp_path / "o").exists()


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
    assert not (tmp_path / "o").exists()


def test_missing_profile_file_is_config_error(tiny_config, tmp_path, capsys):
    code = run(["simulate", "--config", tiny_config,
                "--arrival-profile", str(tmp_path / "nope.txt"),
                "--out", str(tmp_path / "o")])
    assert code == EXIT_CONFIG
    assert not (tmp_path / "o").exists()


def test_trace_flag_writes_trace(tiny_config, tmp_path):
    out = tmp_path / "out"
    code = run(["simulate", "--config", tiny_config, "--trace", "--out", str(out)])
    assert code == EXIT_OK
    header = open(out / "trace.csv").readline().strip().split(",")
    assert header[:4] == ["slot", "k", "vehicle_id", "tier"]


@pytest.mark.parametrize("name", POLICY_NAMES)
def test_trace_changes_no_simulate_output(tiny_config, tmp_path, name):
    # Only the traced run serves the top-off tier (the simple variants'
    # one list always takes satisfied vehicles); the outputs are the same.
    argv = ["simulate", "--config", tiny_config, "--policy", name, "--sdr", "1.05"]
    plain, traced = tmp_path / "plain", tmp_path / "traced"
    assert run(argv + ["--out", str(plain)]) == EXIT_OK
    assert run(argv + ["--trace", "--out", str(traced)]) == EXIT_OK
    for output in ("fod.csv", "adfd.csv", "outcomes.csv"):
        assert (plain / output).read_bytes() == (traced / output).read_bytes(), output
    rows = read_rows(traced / "trace.csv")
    served = any(row["tier"] == "2" and row["selected"] == "1" for row in rows)
    assert served == parse_policy(name).use_distance_info  # the traced run did top off


@pytest.mark.parametrize("command", ["sweep", "dump-fleet", "verify"])
def test_trace_flag_is_a_usage_error_outside_simulate(tiny_config, tmp_path, command):
    # Only simulate writes a trace; anywhere else the flag would do nothing.
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        run([command, "--config", tiny_config, "--trace", "--out", str(out)])
    assert exc.value.code == EXIT_CONFIG
    assert not out.exists()


@pytest.mark.parametrize("command, flags", [
    ("sweep", ["--no-figures", "--workers", "1"]),
    ("dump-fleet", []),
    ("verify", ["--instances", "2"]),
])
def test_trace_key_is_refused_outside_simulate(tiny_config, tmp_path, capsys, command, flags):
    # A bundle's trace=true would be recorded in resolved-config but write
    # no trace, so it is refused before any output; trace=false is accepted.
    for value, code in (("true", EXIT_CONFIG), ("false", EXIT_OK)):
        bundle = tmp_path / f"trace-{value}.conf"
        bundle.write_text(TINY_CONFIG + f"trace={value}\n")
        out = tmp_path / value
        assert run([command, "--config", str(bundle), *flags, "--out", str(out)]) == code
        assert out.exists() == (code == EXIT_OK)
    assert f"trace=true is refused by {command}" in capsys.readouterr().err


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
    assert not (tmp_path / "o").exists()


def test_short_horizon_scales_measurement_window(tmp_path):
    out = tmp_path / "out"
    code = run(["simulate", "--policy", "fcfs", "--sdr", "1.2", "--seed", "1",
                "--days", "5", "--arrivals-per-day", "60", "--out", str(out)])
    assert code == EXIT_OK
    text = (out / "resolved-config").read_text()
    assert "days=5" in text
    assert "warmup_days=1" in text
    assert "last_measured_day=4" in text


def test_sweep_refuses_a_horizon_too_short_for_its_window(tmp_path, capsys):
    # Two days rescale the window to warmup_days=1, last_measured_day=2.
    code = run(["sweep", "--policies", "fcfs", "--sdr-grid", "1.2", "--seeds", "1", "--days", "2",
                "--workers", "1", "--out", str(tmp_path / "o")])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert ("need warmup_days < last_measured_day < days, but warmup_days=1, last_measured_day=2 "
            "and days=2: set warmup_days and last_measured_day, or raise days (--days)") in err
    assert not (tmp_path / "o").exists()


def test_sweep_with_an_empty_measurement_window_exits_2(tiny_config, tmp_path, capsys, monkeypatch):
    # The one vehicle arrives on day 0, before the window opens on day 1.
    def one_early_vehicle(workload, profile, charger, seed):
        return Fleet.from_vehicles([make_test_vehicle(0, 100, 200, required=20.0)], charger)

    monkeypatch.setattr(metrics, "generate_fleet", one_early_vehicle)
    # A ratio high enough that one vehicle's need calibrates to a charger slot.
    code = run(["sweep", "--config", tiny_config, "--sdr-grid", "300", "--workers", "1", "--no-figures",
                "--out", str(tmp_path / "o")])
    assert code == EXIT_CONFIG
    assert "measurement window empty" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_simulate_refuses_an_empty_measurement_window_before_the_run(tmp_path, capsys, monkeypatch):
    # The one vehicle arrives on day 0, before the window opens on day 1.
    def one_early_vehicle(workload, profile, charger, seed):
        return Fleet.from_vehicles([make_test_vehicle(0, 100, 200, required=20.0)], charger)

    runs = []
    monkeypatch.setattr(metrics, "generate_fleet", one_early_vehicle)
    monkeypatch.setattr(metrics, "run_simulation", lambda *args, **kwargs: runs.append(args))
    out = tmp_path / "o"
    code = run(["simulate", "--policy", "fcfs", "--sdr", "300", "--seed", "1", "--days", "4",
                "--arrivals-per-day", "20", "--trace", "--out", str(out)])
    assert code == EXIT_CONFIG
    assert ("measurement window empty: no vehicle arrives between warmup_days=1 and "
            "last_measured_day=3") in capsys.readouterr().err
    assert runs == []
    assert not out.exists()


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
    assert not (tmp_path / "o").exists()


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


def test_verify_refuses_a_negative_oracle_seed(tiny_config, tmp_path, capsys):
    out = tmp_path / "out"
    code = run(["verify", "--config", tiny_config, "--instances", "5", "--oracle-seed", "-1",
                "--out", str(out)])
    assert code == EXIT_CONFIG
    assert "--oracle-seed must be 0 or more, not -1" in capsys.readouterr().err
    assert not out.exists()


def test_verify_campaign_clean(tiny_config, tmp_path, capsys):
    out = tmp_path / "out"
    code = run(["verify", "--config", tiny_config, "--policies", "all",
                "--instances", "8", "--oracle-seed", "5", "--out", str(out)])
    assert code == EXIT_OK
    assert "0 audit violation(s), 0 optimum mismatch(es)" in capsys.readouterr().out
    assert read_rows(out / "violations.csv") == []
    assert read_rows(out / "mismatches.csv") == []


def test_verify_without_minmax_dt_runs_no_search(tiny_config, tmp_path, capsys, monkeypatch):
    import gridshare.oracle as oracle_mod

    def no_search(*args, **kwargs):
        raise AssertionError("exhaustive search run without minmax-dt")

    monkeypatch.setattr(oracle_mod, "brute_force_min_max_delay", no_search)
    out = tmp_path / "out"
    code = run(["verify", "--config", tiny_config, "--policies", "fcfs,rr",
                "--instances", "40", "--oracle-seed", "1", "--out", str(out)])
    assert code == EXIT_OK
    assert capsys.readouterr().out == (
        "verified 40 steady + 20 cycling random instances x 2 policies: "
        "0 audit violation(s), 0 optimum mismatch(es)\n")


@pytest.mark.parametrize("offset", [-2, -1, 1])
def test_verify_prints_each_optimum_mismatch_exactly(tiny_config, tmp_path, capsys, monkeypatch, offset):
    # minmax-dt's achieved delay, moved below or above the optimum, must
    # be reported against the exact optimum, as an unbounded search on
    # every steady instance reports it; two below, the bounded search
    # stops at the bound, under the optimum.
    import numpy as np

    import gridshare.oracle as oracle_mod

    real_max_delay = oracle_mod.max_delay
    monkeypatch.setattr(oracle_mod, "max_delay", lambda outcomes: real_max_delay(outcomes) + offset)
    rng = np.random.default_rng(2)
    expected = []
    for index in range(12):
        inst = oracle_mod.random_tiny_instance(rng, constant_k=True)
        achieved = real_max_delay(oracle_mod.run_policy_on_instance(inst, parse_policy("minmax-dt"))) + offset
        expected.append((index, achieved, oracle_mod.brute_force_min_max_delay(inst)))
    out = tmp_path / "out"
    code = run(["verify", "--config", tiny_config, "--policies", "all",
                "--instances", "12", "--oracle-seed", "2", "--out", str(out)])
    assert code == EXIT_RUNTIME
    assert capsys.readouterr().out.splitlines() == [
        "verified 12 steady + 6 cycling random instances x 5 policies: "
        "0 audit violation(s), 12 optimum mismatch(es)",
        *(f"  instance {index}: achieved max delay {achieved}, optimum {optimum}"
          for index, achieved, optimum in expected[:10]),
    ]


def test_verify_writes_every_optimum_mismatch(tiny_config, tmp_path, capsys, monkeypatch):
    # Stdout lists the first 10; mismatches.csv keeps them all.
    import gridshare.oracle as oracle_mod

    real_max_delay = oracle_mod.max_delay
    monkeypatch.setattr(oracle_mod, "max_delay", lambda outcomes: real_max_delay(outcomes) + 1)
    out = tmp_path / "out"
    code = run(["verify", "--config", tiny_config, "--policies", "minmax-dt",
                "--instances", "500", "--oracle-seed", "1", "--out", str(out)])
    assert code == EXIT_RUNTIME
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].endswith("0 audit violation(s), 500 optimum mismatch(es)")
    rows = read_rows(out / "mismatches.csv")
    assert [int(row["instance"]) for row in rows] == list(range(500))
    # minmax-dt meets the optimum on steady instances, so each is one above.
    assert all(int(row["achieved"]) == int(row["optimum"]) + 1 for row in rows)
    assert lines[1:] == [f"  instance {row['instance']}: achieved max delay {row['achieved']}, "
                         f"optimum {row['optimum']}" for row in rows[:10]]
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


def test_verify_audit_mode_refuses_a_negative_k(tiny_config, tmp_path, capsys):
    trace_dir = tmp_path / "run"
    assert run(["simulate", "--config", tiny_config, "--policy", "rr", "--trace",
                "--out", str(trace_dir)]) == EXIT_OK
    capsys.readouterr()
    lines = (trace_dir / "trace.csv").read_text().splitlines()
    slot = lines[1].split(",")[0]
    for i, line in enumerate(lines[1:], start=1):  # every row of the first slot
        fields = line.split(",")
        if fields[0] == slot:
            fields[1] = "-1"
            lines[i] = ",".join(fields)
    bad = tmp_path / "bad-trace.csv"
    bad.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    code = run(["verify", "--config", tiny_config, "--policy", "rr",
                "--audit-trace", str(bad), "--out", str(out)])
    assert code == EXIT_CONFIG
    captured = capsys.readouterr()
    assert "bad-trace.csv:2: k must be 0 or more" in captured.err
    assert captured.out == ""
    assert not out.exists()


TRACE_HEADER = ",".join(engine.TRACE_FIELDS) + "\n"
ONE_SLOT_TRACE = TRACE_HEADER + "0,1,0,1,0,2,1,-1,1\n"


# "@name" stands for a file of tmp_path holding files[name].
@pytest.mark.parametrize("files, argv, message", [
    ({"b.conf": "days=4\nnot a pair\n"}, ["simulate", "--config", "@b.conf"],
     "b.conf:2: expected key=value, got 'not a pair'"),
    ({"p.txt": "1\n" * 23}, ["simulate", "--arrival-profile", "@p.txt"],
     "arrival profile file must hold 24 hourly weights"),
    ({"p.txt": "0\n" * 24}, ["simulate", "--arrival-profile", "@p.txt"],
     "arrival weights must have positive sum"),
    ({}, ["sweep", "--policies", ","], "at least one policy required"),
    ({}, ["sweep", "--seeds", ","], "at least one seed required"),
    ({}, ["sweep", "--sdr-grid", ","], "empty supply-ratio grid"),
    ({"t.conf": "trace=maybe\n"}, ["simulate", "--config", "@t.conf"], "not a boolean: 'maybe'"),
    ({"t.csv": ONE_SLOT_TRACE}, ["verify", "--policies", "fcfs,rr", "--audit-trace", "@t.csv"],
     "auditing a trace needs exactly one --policy"),
    ({"s.txt": "1\nhalf\n" + "0.5\n" * 286}, ["simulate", "--load-shape", "@s.txt"],
     "s.txt:2: not a number: 'half'"),
    ({"t.csv": "slot,k\n0,1\n"}, ["verify", "--policy", "fcfs", "--audit-trace", "@t.csv"],
     "t.csv:1: unexpected trace header ['slot', 'k']"),
    ({"t.csv": ONE_SLOT_TRACE + "0,2,1,1,0,3,1,-2,1\n"},
     ["verify", "--policy", "fcfs", "--audit-trace", "@t.csv"], "t.csv:3: inconsistent K within slot 0"),
    ({"t.csv": TRACE_HEADER + "5,1,0,1,0,9,1,-3,1\n3,1,1,1,0,9,1,-5,1\n"},
     ["verify", "--policy", "fcfs", "--audit-trace", "@t.csv"], "t.csv:3: slots out of order"),
], ids=["bundle-line", "profile-length", "profile-zero", "policies", "seeds", "sdr-grid",
        "trace-bool", "audit-policies", "curve-text", "trace-header", "trace-k", "trace-order"])
def test_a_refused_input_exits_2_and_writes_nothing(tmp_path, capsys, files, argv, message):
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    out = tmp_path / "out"
    argv = [str(tmp_path / arg[1:]) if arg.startswith("@") else arg for arg in argv]
    assert run(argv + ["--out", str(out)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""
    assert not out.exists()


# --- what a run leaves --------------------------------------------------

# A fleet of 4 days x 20 arrivals a day whose commutes need more range
# than a 40-mile battery holds: generating it is refused (exit 2).
SMALL_RUN = ["--seed", "1", "--days", "4", "--arrivals-per-day", "20"]
SMALL_BATTERY = "battery_capacity_miles=40\n"


def snapshot(folder):
    return {path.relative_to(folder): path.read_bytes() if path.is_file() else None
            for path in folder.rglob("*")}


@pytest.mark.parametrize("argv", [
    ["simulate", "--policy", "fcfs", "--sdr", "1.2"],
    ["simulate", "--policy", "fcfs", "--sdr", "1.2", "--trace"],
    ["sweep", "--policy", "fcfs", "--sdr", "1.2", "--workers", "1"],
    ["dump-fleet"],
], ids=["simulate", "simulate-trace", "sweep", "dump-fleet"])
def test_a_refused_rerun_leaves_the_run_directory_byte_identical(tmp_path, capsys, argv):
    out = tmp_path / "out"
    assert run(argv + SMALL_RUN + ["--out", str(out)]) == EXIT_OK
    before = snapshot(out)
    bundle = tmp_path / "small-battery.conf"
    bundle.write_text(SMALL_BATTERY)
    assert run(argv + SMALL_RUN + ["--config", str(bundle), "--out", str(out)]) == EXIT_CONFIG
    assert "exceeds battery capacity 40.0" in capsys.readouterr().err
    assert snapshot(out) == before


@pytest.mark.parametrize("spelling", ["plain", "dotdot", "symlink"])
def test_an_audit_in_the_run_directory_keeps_the_audited_trace(tmp_path, capsys, spelling):
    out = tmp_path / "d"
    assert run(["simulate", "--policy", "fcfs", "--sdr", "1.2", *SMALL_RUN, "--trace",
                "--out", str(out)]) == EXIT_OK
    trace = (out / "trace.csv").read_bytes()
    audited = {"plain": out, "dotdot": out / ".." / "d", "symlink": tmp_path / "link"}[spelling]
    if spelling == "symlink":
        os.symlink(out, audited)
    assert run(["verify", "--policy", "fcfs", "--audit-trace", str(audited / "trace.csv"),
                "--out", str(out)]) == EXIT_OK
    assert "0 violation(s)" in capsys.readouterr().out
    assert (out / "trace.csv").read_bytes() == trace
    assert sorted(os.listdir(out)) == ["arrival-profile.txt", "load-shape.txt", "resolved-config",
                                       "trace.csv", "violations.csv"]


def test_a_traced_simulate_refused_by_its_fleet_leaves_no_directory(tmp_path, capsys):
    bundle = tmp_path / "small-battery.conf"
    bundle.write_text(SMALL_BATTERY)
    out = tmp_path / "runs" / "sim"  # neither directory exists yet
    code = run(["simulate", "--config", str(bundle), "--policy", "fcfs", "--sdr", "1.2", *SMALL_RUN,
                "--trace", "--out", str(out)])
    assert code == EXIT_CONFIG
    assert "exceeds battery capacity 40.0" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [bundle]


@pytest.mark.parametrize("existing", [False, True])
def test_a_traced_run_that_raises_leaves_no_trace(tmp_path, capsys, monkeypatch, existing):
    out = tmp_path / "out"
    if existing:
        out.mkdir()
    calls = []

    def select_then_raise(*args):
        calls.append(args)
        if len(calls) == 3:
            raise RuntimeError("select failed")
        return real_select(*args)

    real_select = engine.select
    monkeypatch.setattr(engine, "select", select_then_raise)
    code = run(["simulate", "--policy", "fcfs", "--sdr", "1.2", *SMALL_RUN, "--trace",
                "--out", str(out)])
    assert code == EXIT_RUNTIME
    assert "select failed" in capsys.readouterr().err
    assert len(calls) == 3
    assert not (out / "trace.csv").exists() and not (out / "trace.csv.tmp").exists()
    assert out.exists() == existing  # a directory the run did not make stays


def _break_charts(monkeypatch, out):
    def broken(canvas):
        raise RuntimeError("chart failed")

    monkeypatch.setattr(figures._Canvas, "finish", broken)


def _break_roundtrip(monkeypatch, out):
    def broken(groups, path):  # raises while the sampled trace is on disk
        raise RuntimeError("round trip failed")

    monkeypatch.setattr(oracle, "_roundtrip_violations", broken)


def _break_outcomes(monkeypatch, out):
    def broken(outcomes, measured, path):  # raises after five files are staged
        raise OSError("disk full")

    monkeypatch.setattr(metrics, "write_outcomes_csv", broken)


def _block_outcomes(monkeypatch, out):
    # A directory where simulate moves its outcomes.csv.
    if (out / "outcomes.csv").exists():
        (out / "outcomes.csv").unlink()
    (out / "outcomes.csv").mkdir(parents=True)


@pytest.mark.parametrize("argv, sabotage, code, message", [
    (["dump-fleet", "--seed", "1", "--days", "3", "--arrivals-per-day", "0.001"], None, EXIT_CONFIG,
     "empty workload"),
    (["verify", "--instances", "3"], _break_roundtrip, EXIT_RUNTIME, "round trip failed"),
    (["sweep", "--policy", "fcfs", "--sdr", "1.2", "--workers", "1", *SMALL_RUN], _break_charts,
     EXIT_RUNTIME, "chart failed"),
    (["simulate", "--policy", "fcfs", "--sdr", "1.2", *SMALL_RUN], _break_outcomes, EXIT_CONFIG,
     "disk full"),
    (["simulate", "--policy", "fcfs", "--sdr", "1.2", *SMALL_RUN], _block_outcomes, EXIT_CONFIG,
     "outcomes.csv is a directory"),
], ids=["dump-fleet-empty", "verify-raises", "sweep-chart-fails", "simulate-write-fails",
        "simulate-target-is-a-directory"])
@pytest.mark.parametrize("existing", [False, True])
def test_a_command_that_fails_after_its_run_writes_nothing(
        tmp_path, capsys, monkeypatch, argv, sabotage, code, message, existing):
    out = tmp_path / "new" / "out"
    if existing:  # a run whose every file differs from those of the simulate cases
        assert run(["simulate", "--policy", "fcfs", "--sdr", "2", *SMALL_RUN, "--out", str(out)]) == EXIT_OK
    if sabotage:
        sabotage(monkeypatch, out)
    before = snapshot(tmp_path)  # out and the directory above it, if made
    assert run(argv + ["--out", str(out)]) == code
    assert message in capsys.readouterr().err
    assert snapshot(tmp_path) == before


@pytest.mark.parametrize("argv", [
    ["simulate", "--policy", "minmax-dt", "--sdr", "1.2", *SMALL_RUN],
    ["simulate", "--policy", "minmax-dt", "--sdr", "1.2", "--trace", *SMALL_RUN],
    ["sweep", "--policies", "fcfs,rr", "--sdr-grid", "1.2,2", *SMALL_RUN, "--workers", "1"],
    ["dump-fleet", *SMALL_RUN],
    ["verify", "--instances", "3"],
    ["verify", "--policy", "rr", "--audit-trace", "@trace"],
], ids=["simulate", "simulate-trace", "sweep", "dump-fleet", "verify", "verify-audit"])
def test_every_file_in_the_run_directory_is_written_as_a_named_temporary(
        tmp_path, capsys, monkeypatch, argv):
    # What RunDir.finish knows is all a run directory can hold.
    trace = tmp_path / "traced" / "trace.csv"
    assert run(["simulate", "--policy", "rr", "--sdr", "1.2", "--trace", *SMALL_RUN,
                "--out", str(trace.parent)]) == EXIT_OK
    out = tmp_path / "out"
    opened = []
    real_open = builtins.open

    def recording_open(file, mode="r", *args, **kwargs):
        if not isinstance(file, int) and set(mode) & set("wax+"):
            opened.append(os.path.abspath(file))
        return real_open(file, mode, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", recording_open)
    monkeypatch.setattr(io, "open", recording_open)
    argv = [str(trace) if arg == "@trace" else arg for arg in argv]
    assert run(argv + ["--out", str(out)]) == EXIT_OK
    monkeypatch.undo()
    inside = [os.path.relpath(path, out) for path in opened
              if os.path.commonpath([path, str(out)]) == str(out)]
    assert inside and all(name.endswith(".tmp") and name[:-4] in RUN_FILES for name in inside)
    assert sorted(name[:-4] for name in inside) == sorted(path.name for path in out.iterdir())


@pytest.mark.parametrize("argv", [
    ["simulate", "--policy", "minmax-dt", "--sdr", "1.2", "--trace", *SMALL_RUN],
    ["sweep", "--policies", "fcfs,rr", "--sdr-grid", "1.2,2", *SMALL_RUN, "--workers", "2"],
    ["dump-fleet", *SMALL_RUN],
    ["verify", "--instances", "3"],
], ids=["simulate", "sweep", "dump-fleet", "verify"])
def test_a_successful_command_leaves_no_temporary_file(tmp_path, capsys, argv):
    out = tmp_path / "out"
    assert run(argv + ["--out", str(out)]) == EXIT_OK
    assert "resolved-config" in {path.name for path in out.iterdir()}
    assert list(out.rglob("*.tmp")) == []
    trace_dir = tmp_path / "audited"
    if argv[0] == "simulate":
        assert run(["verify", "--policy", "minmax-dt", "--audit-trace", str(out / "trace.csv"),
                    "--out", str(trace_dir)]) == EXIT_OK
        assert list(trace_dir.rglob("*.tmp")) == []


CONTEXT_FILES = {"resolved-config", "arrival-profile.txt", "load-shape.txt"}
FIGURES = {"fig1-fraction-delayed.svg", "fig2-average-delay.svg", "fig3-delay-distribution.svg"}


def test_a_reused_run_directory_keeps_only_the_last_commands_files(tmp_path, capsys):
    out = tmp_path / "out"
    simulate = ["simulate", "--policy", "fcfs", *SMALL_RUN]
    sweep = ["sweep", "--policy", "fcfs", "--sdr", "1.2", "--workers", "1", *SMALL_RUN]
    bundle = tmp_path / "small-battery.conf"
    bundle.write_text(SMALL_BATTERY)
    for argv, code, files in [
        (simulate + ["--sdr", "1.2", "--trace"], EXIT_OK, {"fod.csv", "adfd.csv", "outcomes.csv", "trace.csv"}),
        (simulate + ["--sdr", "2"], EXIT_OK, {"fod.csv", "adfd.csv", "outcomes.csv"}),
        (simulate + ["--sdr", "1.2", "--trace"], EXIT_OK, {"fod.csv", "adfd.csv", "outcomes.csv", "trace.csv"}),
        (sweep, EXIT_OK, {"fod.csv", "adfd.csv", "delaydist.csv", *FIGURES}),
        (sweep + ["--no-figures"], EXIT_OK, {"fod.csv", "adfd.csv", "delaydist.csv"}),
        # A refused command writes and removes nothing.
        (["dump-fleet", *SMALL_RUN, "--config", str(bundle)], EXIT_CONFIG, None),
        (["dump-fleet", *SMALL_RUN], EXIT_OK, {"fleet.csv"}),
        (["verify", "--instances", "3"], EXIT_OK, {"violations.csv", "mismatches.csv"}),
        (simulate + ["--sdr", "1.2"], EXIT_OK, {"fod.csv", "adfd.csv", "outcomes.csv"}),
    ]:
        before = snapshot(out)
        assert run(argv + ["--out", str(out)]) == code, argv
        if files is None:
            assert snapshot(out) == before
            continue
        names = {path.name for path in out.iterdir()}
        assert names == CONTEXT_FILES | files, argv
        assert names <= set(RUN_FILES)
        assert ("trace=true" in (out / "resolved-config").read_text()) == ("--trace" in argv)
    capsys.readouterr()


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
