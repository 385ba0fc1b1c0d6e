"""Config-bundle fuzzer: every bad bundle is refused before any output.

Each example starts from a bundle of valid values for every key (or the
key left out) and replaces up to three keys with a value drawn from that
key's valid, boundary and garbage values. The property:

- `build_config` returns or raises ValueError;
- a bundle it refuses makes `gridshare simulate` and `gridshare
  dump-fleet` exit 2 without creating the output directory;
- a bundle it accepts, if it is within the scale cap (`MAX_DAYS` days and
  `MAX_VEHICLES` expected vehicles), exits 0 through either command with
  an output directory, or exits 2 (a refusal that depends on the drawn
  fleet, or on the command) without one. It never exits 3.

The values stay clear of the rejection samplers' slow corners, which
README allows (a commute mean far above its cap, a duration spread far
wider than its bounds): they are slow, not refused. Curve files are
drawn from files written once per module; a path that does not exist
raises OSError, not ValueError, and has its own CLI test.
"""

import contextlib
import io
import os
import tempfile

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from gridshare.cli import EXIT_CONFIG, EXIT_OK, build_config, run

MAX_DAYS = 5
MAX_VEHICLES = 300

# key -> (valid, boundary, garbage); None leaves the key out.
VALUES = {
    "days": (["3", "4", "5"], ["1", "0", "-1", "2", "7456541"], ["", "x", "2.5", "nan"]),
    "warmup_days": ([None, "1"], ["0", "-1", "4"], ["", "x", "1.5"]),
    "last_measured_day": ([None, "2"], ["0", "1", "5", "99"], ["", "x"]),
    "arrivals_per_day": (["20", "60"], ["0", "-1", "0.5", "1e9"], ["", "nan", "inf", "x"]),
    "duration_mean_h": (["14", "10"], ["6", "22", "0", "-1"], ["", "nan", "x"]),
    "duration_std_h": (["4", "1"], ["0", "-1", "-0.0"], ["", "inf", "x"]),
    "duration_min_h": (["6", "2"], ["0", "14", "-1"], ["", "nan"]),
    "duration_max_h": (["22", "30"], ["14", "1e6"], ["", "-inf"]),
    "one_way_commute_mean_mi": (["14.5", "5"], ["0", "-1"], ["", "nan", "x"]),
    "commute_cap_mi": (["70", "200"], ["0", "0.5", "-1"], ["", "inf"]),
    "extra_daily_mi": (["20", "0"], ["-1", "90", "1e6"], ["", "nan"]),
    "emergency_mi": (["10", "0"], ["-1", "80"], ["", "x"]),
    "initial_charge_max_mi": (["30", "0"], ["100", "150", "-1"], ["", "nan"]),
    "battery_capacity_miles": (["100", "60"], ["30", "0", "-1"], ["", "nan", "x"]),
    "charger": (["home-110-15", "dryer-220-30"], ["home-110-15-exact"], ["", "x", "home"]),
    "peak_other_fraction": (["0.8", "0.5"], ["0", "1", "0.999999"], ["", "nan", "-0.5"]),
    "bin_width_min": (["30", "7.5"], ["0", "-1", "0.5", "1e9"], ["", "inf"]),
    "policies": (["fcfs", "minmax-dt", "rr-simple"], ["all", "fcfs,rr"], ["", "x", "fcfs,fcfs", ","]),
    "sdr_grid": (["1", "1.2", "3"], ["1000000", "1.2,2", "0.999"], ["", "nan", "1,1", "x", "1e7", ","]),
    "seeds": (["1", "2", "0"], ["-1", "1,2", "4294967296"], ["", "x", "1,1", "1.5"]),
    "trace": (["false", "true"], [], ["", "maybe"]),
    "arrival_profile": ([None, "@profile"], [], ["@profile-23", "@profile-zero", "@profile-negative",
                                                 "@profile-text", "@profile-nan"]),
    "load_shape": ([None, "@shape"], [], ["@shape-287", "@shape-above-1", "@shape-text",
                                          "@shape-nan"]),
}

# One valid value for every key, the base of the explicit examples.
VALID = {key: valid[-1] for key, (valid, _, _) in VALUES.items() if valid[-1] is not None}

CURVE_FILES = {
    "@profile": ["1"] * 24,
    "@profile-23": ["1"] * 23,
    "@profile-zero": ["0"] * 24,
    "@profile-negative": ["-1"] + ["1"] * 23,
    "@profile-text": ["x"] + ["1"] * 23,
    "@profile-nan": ["nan"] + ["1"] * 23,
    "@shape": ["1"] + ["0.5"] * 287,
    "@shape-287": ["1"] * 287,
    "@shape-above-1": ["2"] + ["1"] * 287,
    "@shape-text": ["x"] + ["1"] * 287,
    "@shape-nan": ["nan"] + ["1"] * 287,
}


@st.composite
def bundles(draw):
    bundle = {key: draw(st.sampled_from(valid)) for key, (valid, _, _) in VALUES.items()}
    for key in draw(st.lists(st.sampled_from(sorted(VALUES)), max_size=3, unique=True)):
        valid, boundary, garbage = VALUES[key]
        bundle[key] = draw(st.sampled_from(valid + boundary + garbage))
    return {key: value for key, value in bundle.items() if value is not None}


@pytest.fixture(scope="module")
def curve_dir(tmp_path_factory):
    folder = tmp_path_factory.mktemp("curves")
    for name, lines in CURVE_FILES.items():
        (folder / name.lstrip("@")).write_text("\n".join(lines) + "\n")
    return folder


def run_quietly(argv):
    """cli.run's exit code and what it wrote to stderr."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, err.getvalue()


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@example(bundle={**VALID, "seeds": "-1"})
@example(bundle={**VALID, "warmup_days": "-1"})
@example(bundle={**VALID, "battery_capacity_miles": "30", "trace": "false"})
@example(bundle={**VALID, "battery_capacity_miles": "30", "trace": "true"})
@example(bundle={**VALID, "arrivals_per_day": "0.001", "trace": "false"})  # draws no vehicle
@given(bundle=bundles())
def test_a_bundle_is_refused_before_any_output_or_runs(curve_dir, bundle):
    bundle = {key: str(curve_dir / value.lstrip("@")) if value.startswith("@") else value
              for key, value in bundle.items()}
    try:
        cfg = build_config(bundle)
    except ValueError:
        cfg = None
    if cfg is not None:
        days = cfg.base.workload.days
        if days > MAX_DAYS or days * cfg.base.profile.expected_daily_arrivals > MAX_VEHICLES:
            return
    with tempfile.TemporaryDirectory() as tmp:
        conf = os.path.join(tmp, "bundle.conf")
        with open(conf, "w", encoding="utf-8") as fh:
            fh.writelines(f"{key}={value}\n" for key, value in bundle.items())
        for command in ("simulate", "dump-fleet"):
            out = os.path.join(tmp, command)
            code, err = run_quietly([command, "--config", conf, "--out", out])
            assert code in ((EXIT_CONFIG,) if cfg is None else (EXIT_OK, EXIT_CONFIG)), err
            assert os.path.exists(out) == (code == EXIT_OK), err
