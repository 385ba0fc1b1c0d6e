"""Experiment driver: single runs, sweeps, verification, fleet dumps.

Configuration is a flat key=value bundle plus two plain-text column
files (arrival profile, load shape); command-line flags override file
values, and `_CONFIG_DEFAULTS` holds the only default of every key. The
library's config objects and functions take every value explicitly, so
each run, the acceptance tests' included, is built from that table by
`build_config`.
Each command only runs: it returns its files as `{name: writer(path)}`,
its stdout lines and its exit code. `run` then writes a resolved-config
of every effective setting, the two input curves and those files
through one `RunDir`, so a command that is refused (exit 2) or raises
(exit 3) writes nothing. Only `simulate --trace` writes while its run
goes: the engine streams `trace.csv` through the same `RunDir.write`,
which removes it again if the run raises; `verify`'s campaign writes its
round-trip trace in a temporary directory, never in the run directory.
`RunDir` says what a reused run directory keeps.
Only `simulate` takes `--trace` and reads the `trace` key; every other
command refuses `trace=true`, so its resolved-config never records a
trace it did not write.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
import tempfile
import textwrap
from dataclasses import dataclass, fields

import numpy as np

from . import defaults, figures, metrics, oracle
from .policies import _LATE, ALL_POLICY_NAMES, POLICY_NAMES, parse_policy
from .powergrid import (
    CHARGER_PRESETS,
    LoadShape,
    charger_preset,
    check_peak_other_fraction,
    check_supply_ratio,
)
from .units import SLOTS_PER_DAY
from .workload import (
    WorkloadConfig,
    adjusted_departure_fraction,
    arrival_profile_from_weights,
    dump_fleet_csv,
    generate_fleet,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3

_CONFIG_DEFAULTS = {
    "days": "15",
    "warmup_days": "4",
    "last_measured_day": "13",
    "arrivals_per_day": "1500",
    "duration_mean_h": "14",
    "duration_std_h": "4",
    "duration_min_h": "6",
    "duration_max_h": "22",
    "one_way_commute_mean_mi": "14.5",
    "commute_cap_mi": "70",
    "extra_daily_mi": "20",
    "emergency_mi": "10",
    "initial_charge_max_mi": "30",
    "battery_capacity_miles": "100",
    "charger": "home-110-15",
    "peak_other_fraction": "0.8",
    "bin_width_min": "30",
    "policies": "all",
    "sdr_grid": "1,1.05,1.1,1.15,1.2,1.4,1.6,1.8,2,3",
    "seeds": "1,2,3",
    "trace": "false",
    "arrival_profile": "",
    "load_shape": "",
    "out": "out",
}


@dataclass
class ExperimentConfig:
    raw: dict
    base: metrics.SweepBase
    policies: list
    sdr_grid: list
    seeds: list
    out_dir: str
    trace: bool


def _parse_bool(value: str) -> bool:
    lowered = value.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {value!r}")


def read_config_bundle(path) -> dict:
    """Parse a flat key=value file; '#' starts a comment."""
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            if "=" not in text:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {text!r}")
            key, _, value = text.partition("=")
            key = key.strip()
            if key not in _CONFIG_DEFAULTS:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            values[key] = value.strip()
    return values


def config_overrides(args) -> dict:
    """The key=value strings a command line sets: --config file, then flags."""
    overrides = read_config_bundle(args.config) if args.config else {}
    overrides.update({k: str(v) for k, v in vars(args).items()
                      if k in _CONFIG_DEFAULTS and v is not None})
    return overrides


def _refuse_duplicates(what: str, values: list) -> None:
    """A repeated grid value would run its cells twice and count them twice in the mean."""
    repeated = sorted({v for v in values if values.count(v) > 1})
    if repeated:
        raise ValueError(f"duplicate {what}: {', '.join(map(str, repeated))}")


def _finite(key: str, text: str) -> float:
    """text as a float; nan and inf are refused, naming the key they were given for."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{key} must be a finite number, not {text.strip()!r}")
    return value


def build_config(overrides: dict) -> ExperimentConfig:
    """The experiment that the table's defaults with `overrides` describe."""
    unknown = sorted(set(overrides) - set(_CONFIG_DEFAULTS))
    if unknown:
        raise ValueError(f"unknown config key(s): {', '.join(unknown)}")
    raw = {**_CONFIG_DEFAULTS, **overrides}

    # A shortened horizon scales the measurement window proportionally
    # unless the window was pinned explicitly.
    days = int(raw["days"])
    full_days, full_warmup, full_last = (
        int(_CONFIG_DEFAULTS[k]) for k in ("days", "warmup_days", "last_measured_day"))
    if days != full_days:
        if "warmup_days" not in overrides:
            raw["warmup_days"] = str(min(full_warmup, max(1, days * full_warmup // full_days)))
        if "last_measured_day" not in overrides:
            warmup = int(raw["warmup_days"])
            raw["last_measured_day"] = str(
                max(warmup + 1, min(days - 1, days * full_last // full_days)))

    charger = charger_preset(raw["charger"])
    # Every field but days is a float key, parsed in field order.
    workload = WorkloadConfig(days=days, **{
        f.name: _finite(f.name, raw[f.name]) for f in fields(WorkloadConfig) if f.name != "days"})
    if raw["arrival_profile"]:
        weights = defaults.read_column_file(raw["arrival_profile"])
        if len(weights) != 24:
            raise ValueError("arrival profile file must hold 24 hourly weights")
    else:
        weights = defaults.default_hourly_arrival_weights()
    arrivals_per_day = _finite("arrivals_per_day", raw["arrivals_per_day"])
    if arrivals_per_day <= 0.0:
        raise ValueError(f"arrivals_per_day must be positive, not {arrivals_per_day:g}: "
                         "a workload without arrivals has no vehicles")
    profile = arrival_profile_from_weights(weights, arrivals_per_day)
    # Slots and vehicles must fit the priority keys' range (2**31); sizes
    # inside it that do not fit in memory still fail at run time.
    if days * SLOTS_PER_DAY >= _LATE:
        raise ValueError(f"a horizon of {days} days is refused: it must stay below 2**31 slots")
    if days * profile.expected_daily_arrivals >= _LATE:
        raise ValueError(f"an expected fleet of {days} days x {profile.expected_daily_arrivals:g} "
                         "arrivals is refused: it must stay below 2**31 vehicles")

    if raw["load_shape"]:
        shape_values = defaults.read_column_file(raw["load_shape"])
    else:
        shape_values = defaults.default_load_shape_values()
    shape = LoadShape.from_values(shape_values)

    names = raw["policies"].strip()
    if names == "all":
        policy_names = list(ALL_POLICY_NAMES)
    else:
        policy_names = [p.strip() for p in names.split(",") if p.strip()]
    if not policy_names:
        raise ValueError("at least one policy required")
    _refuse_duplicates("policies", policy_names)
    policies = [parse_policy(name) for name in policy_names]

    sdr_grid = [_finite("sdr_grid", x) for x in raw["sdr_grid"].split(",") if x.strip()]
    if not sdr_grid:
        raise ValueError("empty supply-ratio grid")
    for sdr in sdr_grid:
        check_supply_ratio(sdr)
    seeds = [int(x) for x in raw["seeds"].split(",") if x.strip()]
    if not seeds:
        raise ValueError("at least one seed required")
    if min(seeds) < 0:
        raise ValueError(f"seeds must be 0 or more, not {min(seeds)}")
    _refuse_duplicates("supply ratios", sdr_grid)
    _refuse_duplicates("seeds", seeds)

    peak_other_fraction = _finite("peak_other_fraction", raw["peak_other_fraction"])
    check_peak_other_fraction(peak_other_fraction)
    base = metrics.SweepBase(
        workload=workload,
        profile=profile,
        shape=shape,
        charger=charger,
        warmup_days=int(raw["warmup_days"]),
        last_measured_day=int(raw["last_measured_day"]),
        peak_other_fraction=peak_other_fraction,
        bin_width_min=_finite("bin_width_min", raw["bin_width_min"]),
    )
    return ExperimentConfig(
        raw=raw,
        base=base,
        policies=policies,
        sdr_grid=sdr_grid,
        seeds=seeds,
        out_dir=raw["out"],
        trace=_parse_bool(raw["trace"]),
    )


def resolve_config(args) -> ExperimentConfig:
    """The experiment a parsed command line describes."""
    return build_config(config_overrides(args))


# Every file a command can leave in its run directory.
RUN_FILES = (
    "resolved-config", "arrival-profile.txt", "load-shape.txt",
    "fod.csv", "adfd.csv", "delaydist.csv", "outcomes.csv", "trace.csv", *figures.FIGURE_FILES,
    "fleet.csv", "violations.csv", "mismatches.csv",
)


class RunDir:
    """A command's run directory: the RUN_FILES it writes, then the removal of the others.

    `RUN_FILES` names every file a command can leave in its run
    directory. Every file is written through `write`, and `finish`,
    called once the results are written, removes every other file of
    RUN_FILES, left by an earlier command, so the directory holds only
    its last successful command's files; a trace that
    `verify --audit-trace` audits in its own run directory stays.
    """

    def __init__(self, path):
        self.path = path
        self.written = set()

    def write(self, name, writer):
        """Have writer(tmp) write `<name>.tmp`, move it to name, and return what writer returned.

        Missing directories are made first. On failure the temporary file is
        removed, and so are the directories made (`os.rmdir`: empty ones only).
        """
        self.written.add(name)
        path = os.path.join(self.path, name)
        missing = []
        head = os.path.normpath(self.path)
        while head and not os.path.isdir(head):
            missing.append(head)
            head = os.path.dirname(head)
        if missing:
            os.makedirs(missing[0])
        tmp = f"{path}.tmp"
        try:
            result = writer(tmp)
            os.replace(tmp, path)
            return result
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            for made in missing:
                os.rmdir(made)
            raise

    def finish(self, audited=None) -> None:
        """audited, the trace `verify --audit-trace` read, is never removed."""
        kept = os.path.realpath(audited) if audited else None
        for name in RUN_FILES:
            path = os.path.join(self.path, name)
            if name not in self.written and os.path.exists(path) and os.path.realpath(path) != kept:
                os.remove(path)


def _text_writer(text: str):
    """A writer of text, for `RunDir.write`."""
    def write(path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)

    return write


def run_context(cfg: ExperimentConfig) -> dict:
    """The files of the run context: resolved-config and the two input curves."""
    resolved = dict(cfg.raw)
    resolved["arrival_profile"] = os.path.join(cfg.out_dir, "arrival-profile.txt")
    resolved["load_shape"] = os.path.join(cfg.out_dir, "load-shape.txt")
    return {
        "arrival-profile.txt": lambda p: defaults.write_column_file(
            p, cfg.base.profile.hourly_weights, header="hourly arrival weights (normalized)"),
        "load-shape.txt": lambda p: defaults.write_column_file(
            p, cfg.base.shape.values, header="per-slot non-vehicle load shape (peak 1)"),
        "resolved-config": _text_writer(
            "# effective configuration; rerun with --config to reproduce\n"
            + "".join(f"{key}={resolved[key]}\n" for key in sorted(resolved))),
    }


def _cell_summary(report: metrics.MetricsReport) -> str:
    adfd = "NA" if report.adfd_minutes is None else f"{report.adfd_minutes:.1f}min"
    return (
        f"{report.policy} sdr={report.sdr:g} seed={metrics._seed_label(report.seed)}: "
        f"n={report.n_measured} fod={report.fod:.4f} adfd={adfd}"
    )


def cmd_simulate(cfg: ExperimentConfig, args, run_dir: RunDir):
    if len(cfg.policies) != 1 or len(cfg.sdr_grid) != 1 or len(cfg.seeds) != 1:
        raise ValueError("simulate runs exactly one (policy, sdr, seed) cell; use sweep for grids")
    cell = functools.partial(metrics.run_cell, cfg.base, cfg.policies[0], cfg.sdr_grid[0], cfg.seeds[0])
    # The engine writes the trace as the run goes.
    report, outcomes = run_dir.write("trace.csv", lambda p: cell(trace_path=p)) if cfg.trace else cell()
    table = [report]
    measured = cfg.base.measured_ranks(outcomes.arrival_slot)
    files = {
        "fod.csv": lambda p: metrics.write_fod_csv(table, p),
        "adfd.csv": lambda p: metrics.write_adfd_csv(table, p),
        "outcomes.csv": lambda p: metrics.write_outcomes_csv(outcomes, measured, p),
    }
    return files, [_cell_summary(report)], EXIT_OK


def cmd_sweep(cfg: ExperimentConfig, args, run_dir: RunDir):
    table = metrics.sweep(cfg.policies, cfg.sdr_grid, cfg.seeds, cfg.base, max_workers=args.workers)
    files = {
        "fod.csv": lambda p: metrics.write_fod_csv(table, p),
        "adfd.csv": lambda p: metrics.write_adfd_csv(table, p),
        "delaydist.csv": lambda p: metrics.write_delaydist_csv(table, p),
    }
    if not args.no_figures:
        files.update((name, _text_writer(svg)) for name, svg in figures.emit_figures(table).items())
    return files, [_cell_summary(report) for report in table], EXIT_OK


def cmd_dump_fleet(cfg: ExperimentConfig, args, run_dir: RunDir):
    if len(cfg.seeds) != 1:
        raise ValueError("dump-fleet writes one seed's fleet; give exactly one --seed")
    seed = cfg.seeds[0]
    fleet = generate_fleet(cfg.base.workload, cfg.base.profile, cfg.base.charger, seed)
    adjusted = adjusted_departure_fraction(fleet)
    path = os.path.join(cfg.out_dir, "fleet.csv")
    line = f"fleet seed={seed}: {len(fleet)} vehicles, adjusted departures {adjusted:.3%} -> {path}"
    return {"fleet.csv": lambda p: dump_fleet_csv(fleet, p)}, [line], EXIT_OK


def cmd_verify(cfg: ExperimentConfig, args, run_dir: RunDir):
    if args.audit_trace:
        if len(cfg.policies) != 1:
            raise ValueError("auditing a trace needs exactly one --policy")
        violations = oracle.audit_trace(oracle.read_trace(args.audit_trace), cfg.policies[0])
        files = {"violations.csv": lambda p: oracle.write_violations_csv(violations, p)}
        lines = [f"audited {args.audit_trace}: {len(violations)} violation(s)"]
        return files, lines, EXIT_OK if not violations else EXIT_RUNTIME
    if args.instances < 1:
        raise ValueError(f"--instances must be at least 1, not {args.instances}")
    if args.oracle_seed < 0:
        raise ValueError(f"--oracle-seed must be 0 or more, not {args.oracle_seed}")
    n_cycling = args.instances // 2
    # The campaign's round-trip trace is written in, and removed from, a temporary directory.
    with tempfile.TemporaryDirectory() as tmp:
        violations, mismatches = oracle.verify_campaign(
            cfg.policies, np.random.default_rng(args.oracle_seed), args.instances, n_cycling,
            os.path.join(tmp, "verify-trace.csv"))
    files = {
        "violations.csv": lambda p: oracle.write_violations_csv(violations, p),
        "mismatches.csv": lambda p: oracle.write_mismatches_csv(mismatches, p),
    }
    lines = [
        f"verified {args.instances} steady + {n_cycling} cycling random instances "
        f"x {len(cfg.policies)} policies: {len(violations)} audit violation(s), "
        f"{len(mismatches)} optimum mismatch(es)",
        *(f"  instance {index}: achieved max delay {achieved}, optimum {optimum}"
          for index, achieved, optimum in mismatches[:10]),
    ]
    return files, lines, EXIT_OK if not violations and not mismatches else EXIT_RUNTIME


class _HelpFormatter(argparse.HelpFormatter):
    """Wraps help text at spaces only, so no policy or charger name breaks at a hyphen."""

    def _split_lines(self, text, width):
        text = self._whitespace_matcher.sub(" ", text).strip()
        return textwrap.wrap(text, width, break_on_hyphens=False, break_long_words=False)


def _add_common_flags(sub):
    # Every destination but `config` is a _CONFIG_DEFAULTS key; flags left
    # out stay None, and of two spellings of one key the last one given wins.
    sub.add_argument("--config", help="key=value bundle; flags override file values")
    sub.add_argument("--policy", "--policies", dest="policies",
                     help="policy name, comma list of names, or 'all' (the first five "
                          f"names): {', '.join(POLICY_NAMES)}")
    sub.add_argument("--sdr", "--sdr-grid", dest="sdr_grid",
                     help="supply-to-demand ratio, or comma list of ratios")
    sub.add_argument("--seed", "--seeds", dest="seeds", help="workload seed, or comma list of seeds")
    sub.add_argument("--days", type=int, help="simulated days")
    sub.add_argument("--arrivals-per-day", dest="arrivals_per_day", type=float)
    sub.add_argument("--charger", help=f"charger preset: {', '.join(CHARGER_PRESETS)}")
    sub.add_argument("--arrival-profile", dest="arrival_profile",
                     help="24-line hourly arrival weight file")
    sub.add_argument("--load-shape", dest="load_shape",
                     help="288-line per-slot load shape file")
    sub.add_argument("--out", help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridshare",
        description="Slot-based simulator for fair charging of electric vehicles under a constrained grid",
        formatter_class=_HelpFormatter,
    )
    commands = parser.add_subparsers(
        dest="command", required=True,
        parser_class=functools.partial(argparse.ArgumentParser, formatter_class=_HelpFormatter))

    sim = commands.add_parser("simulate", help="run one (policy, sdr, seed) cell")
    _add_common_flags(sim)
    sim.add_argument("--trace", action="store_const", const="true", help="write a per-slot trace")
    sim.set_defaults(func=cmd_simulate)

    sw = commands.add_parser("sweep", help="run the full (policy, sdr, seed) grid")
    _add_common_flags(sw)
    sw.add_argument("--workers", type=int, default=None,
                    help=f"process pool size (default: ${metrics.THREADS_ENV_VAR} or CPU count)")
    sw.add_argument("--no-figures", action="store_true", help="skip SVG chart output")
    sw.set_defaults(func=cmd_sweep)

    df = commands.add_parser("dump-fleet", help="write the generated fleet as CSV")
    _add_common_flags(df)
    df.set_defaults(func=cmd_dump_fleet)

    ver = commands.add_parser("verify", help="brute-force and trace-audit verification")
    _add_common_flags(ver)
    ver.add_argument("--instances", type=int, default=500,
                     help="number of random tiny instances")
    ver.add_argument("--oracle-seed", dest="oracle_seed", type=int, default=2024,
                     help="seed for the instance generator")
    ver.add_argument("--audit-trace", dest="audit_trace",
                     help="audit an existing trace file instead of running the campaign; a "
                          "trace in the --out directory is kept, the audited run's other files "
                          "are not")
    ver.set_defaults(func=cmd_verify)
    return parser


def run(argv=None) -> int:
    """Entry point returning a process exit code (0 ok, 2 config, 3 runtime)."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = resolve_config(args)
        if cfg.trace and args.func is not cmd_simulate:
            raise ValueError(f"trace=true is refused by {args.command}: only simulate reads "
                             "the trace key and writes a trace; set trace=false")
        run_dir = RunDir(cfg.out_dir)
        files, lines, code = args.func(cfg, args, run_dir)
        for name, writer in {**run_context(cfg), **files}.items():
            run_dir.write(name, writer)
        run_dir.finish(getattr(args, "audit_trace", None))
        for line in lines:
            print(line)
        return code
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # noqa: BLE001 - boundary of the process
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
