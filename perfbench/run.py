"""gridshare benchmark: drives the CLI in-process and prints one JSON result line.

Usage (from the repository root):

    python3 perfbench/run.py --workload cell-dt-tight --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics (setup_s, user_cpu_s,
peak_rss_mb), with the CPU times scaled to a reference CPU speed that a
probe loop measures during each call, and the unscaled wall time;
``--trace 1`` runs untraced/traced pairs of the same operation and
prints the per-layer metrics. The metric names and units come from BENCHMARK.json. Every
operation's outputs are checked; the last stdout line is
``{"correct", "attempted", "failed", "metrics"}`` and the exit code is 1
if any check failed. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TMP_ROOT = ROOT / ".perfbench-tmp"

sys.path.insert(0, str(HERE))
import checks  # noqa: E402
import tracer  # noqa: E402

SETUP_SAMPLES = 25

# The shared host's CPU speed drifts by a quarter or more over minutes, and
# one run is shorter than such a phase. While a measured call runs, SIGALRM
# times a fixed pure-Python loop every SPEED_INTERVAL_S; the call's CPU
# seconds are then scaled by REFERENCE_LOOP_S over the loop's mean time
# (without the fastest and slowest tenth of the samples), which reports
# them at one reference speed (see README.md). Set-up children time the
# same loop themselves.
SPEED_INTERVAL_S = 0.05
SPEED_LOOP_ITERATIONS = 3000
REFERENCE_LOOP_S = 160e-6  # the loop's usual time on the 2-vCPU baseline machine

# Forked pool workers do not return spans, so traced calls run their cells
# in-process.
TRACED_WORKERS = 1

# A fresh interpreter that imports gridshare, parses a workload's argv and
# resolves its config, then reports "ready", its main thread's CPU seconds
# and the median time of five speed loops. The threads that numpy's
# OpenBLAS starts on import are left out: their spin-up adds CPU time that
# no one waits for.
_SETUP_CHILD = f"""
import sys, time
sys.path.insert(0, sys.argv[1])
import gridshare.cli as c
c.resolve_config(c.build_parser().parse_args(sys.argv[2:]))
cpu = time.thread_time()
def loop():
    start = time.thread_time()
    total = 0
    for i in range({SPEED_LOOP_ITERATIONS}):
        total += i & 7
    return time.thread_time() - start
print("ready", cpu, sorted(loop() for _ in range(5))[2], flush=True)
"""


@dataclass(frozen=True)
class Workload:
    argv: Callable[[int, int], list]   # (seed, workers) -> CLI argv without --out
    workers: int                       # pool size for untraced operations
    check: Callable
    unit: str                          # what one attempted operation is
    units_per_call: int                # operations in a call whose outputs cannot be read
    layers: tuple                      # spans that must fire in a traced operation


_SLOT_LOOP = ("policies.update_membership", "policies.select", "engine.run_simulation")
_CELL_PIPELINE = _SLOT_LOOP + (
    "workload.generate_fleet", "powergrid.make_grid", "powergrid.day_capacity_profile",
    "metrics.build_report", "metrics.write_fod_csv", "metrics.write_adfd_csv",
)

WORKLOADS = {
    "cell-dt-tight": Workload(
        argv=lambda seed, workers: [
            "simulate", "--policy", "minmax-dt", "--sdr", "1.05", "--seed", str(seed)],
        workers=1, check=checks.check_cell, unit="cells", units_per_call=1,
        layers=_CELL_PIPELINE + ("metrics.write_outcomes_csv",),
    ),
    # Five simulated days instead of fifteen keep the per-slot structure
    # (same arrivals per day, same queue lengths) at a third of the work,
    # so a traced run (three sweeps) fits the per-run time limit.
    "sweep-mix": Workload(
        argv=lambda seed, workers: [
            "sweep", "--policies", "all", "--sdr-grid", "1.2,2.0", "--seeds", str(seed),
            "--days", "5", "--workers", str(workers)],
        workers=2, check=checks.check_sweep, unit="cells", units_per_call=10,
        layers=_CELL_PIPELINE + (
            "metrics.sweep", "metrics.write_delaydist_csv", "figures.emit_figures"),
    ),
    "verify-oracle": Workload(
        argv=lambda seed, workers: [
            "verify", "--instances", "500", "--oracle-seed", str(seed)],
        workers=1, check=checks.check_verify,
        unit="(instance, policy) pairs", units_per_call=(500 + 250) * 5,
        layers=_SLOT_LOOP + (
            "oracle.random_tiny_instance", "oracle.brute_force_min_max_delay",
            "oracle.run_policy_on_instance", "oracle.read_trace", "oracle.audit_trace"),
    ),
}


class Run:
    """One benchmark run: its workload, seed and scratch directory, and the
    attempted and failed operations with the first few problems."""

    def __init__(self, name: str, seed: int, tmp: str):
        self.name, self.workload, self.seed, self.tmp = name, WORKLOADS[name], seed, tmp
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reference: dict | None = None  # digests of the run's first operation

    def add(self, attempted: int, failed: int, problems) -> None:
        self.attempted += attempted
        self.failed += min(failed, attempted)
        self.problems.extend(problems[: max(0, 10 - len(self.problems))])


def run_operation(run: Run, workers: int, cli_run, probe: SpeedProbe | None = None):
    """Run one CLI call in a fresh output directory and check it.

    Returns the call's wall seconds and the user-mode CPU seconds of this
    process and its reaped children (the pool workers). With a probe, the
    call runs under it and the probe loop's own CPU seconds are left out."""
    name, workload, seed = run.name, run.workload, run.seed
    out_dir = tempfile.mkdtemp(dir=run.tmp)
    argv = workload.argv(seed, workers) + ["--out", out_dir]
    captured = io.StringIO()
    try:
        with probe or contextlib.nullcontext():
            cpu_start = user_cpu_s()
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(captured):
                    code = cli_run(argv)
            except Exception as exc:  # noqa: BLE001 - a crash is a failed operation
                code = f"raised {exc!r}"
            wall = time.perf_counter() - start
            cpu = user_cpu_s() - cpu_start
        if probe is not None:
            cpu -= sum(probe.loops)
        try:
            attempted, failed, problems = workload.check(out_dir, captured.getvalue(), seed)
            if name in checks.DIGEST_FILES:
                failed, problems = _check_digests(run, out_dir, attempted, failed, problems)
        except (OSError, ValueError, KeyError) as exc:
            attempted = workload.units_per_call
            failed, problems = attempted, [f"could not check the outputs: {exc!r}"]
        if code != 0 and not failed:
            failed = attempted  # a non-zero exit the checks cannot place fails every unit
        if code != 0:
            problems = [f"{argv[0]} exited {code}"] + problems
        run.add(attempted, failed, problems)
        return wall, cpu
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def _check_digests(run: Run, out_dir, attempted, failed, problems):
    """Outputs must repeat byte for byte within a run and match the recorded seeds."""
    digests = checks.file_digests(out_dir, checks.DIGEST_FILES[run.name])
    if run.reference is None:
        run.reference = digests
    expected = checks.recorded_digests(run.name, run.seed)
    for label, want in (("first operation of this run", run.reference),
                        (f"digest recorded for seed {run.seed}", expected)):
        if want is None:
            continue
        differing = [f for f in digests if digests[f] != want.get(f)]
        if differing:
            problems = problems + [f"{', '.join(differing)} differ from the {label}"]
            failed = attempted
    return failed, problems


def measure_setup(argv: list) -> tuple[list[float], list[float], list[float]]:
    """Per spawn: wall seconds to the child's resolved config, the child's CPU
    seconds to it, and the child's speed loop time."""
    walls, cpus, loops = [], [], []
    for index in range(SETUP_SAMPLES + 1):  # the first sample warms the file cache
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", _SETUP_CHILD, str(SRC), *argv],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        )
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            code = proc.wait(timeout=60)
        finally:
            proc.stdout.close()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line.split()[:1] != ["ready"] or code != 0:
            raise RuntimeError(f"setup child exited {code} without resolving the config")
        if index:
            walls.append(elapsed)
            cpus.append(float(line.split()[1]))
            loops.append(float(line.split()[2]))
    return walls, cpus, loops


def _speed_loop() -> int:
    total = 0
    for i in range(SPEED_LOOP_ITERATIONS):
        total += i & 7
    return total


class SpeedProbe:
    """Times the speed loop on SIGALRM while installed (``with``)."""

    def __init__(self):
        self.loops: list[float] = []

    def _sample(self, *_signal_args) -> None:
        start = time.thread_time()
        _speed_loop()
        self.loops.append(time.thread_time() - start)

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SPEED_INTERVAL_S, SPEED_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def to_reference(self, seconds: float) -> float:
        """CPU seconds measured inside the block, at the reference speed."""
        return seconds * REFERENCE_LOOP_S / self.loop_s()

    def loop_s(self) -> float:
        """Mean loop time without the fastest and slowest tenth of the samples."""
        if not self.loops:  # a block shorter than one interval
            self._sample()
        loops = sorted(self.loops)
        cut = len(loops) // 10
        return statistics.fmean(loops[cut:len(loops) - cut])


def peak_rss_mb() -> float:
    """Larger of this process's and the largest reaped child's max RSS, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def user_cpu_s() -> float:
    """User-mode CPU seconds of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_utime
    return own + resource.getrusage(resource.RUSAGE_CHILDREN).ru_utime


def children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def repeat_for(seconds: float, body: Callable[[], None]) -> None:
    """Call body at least once, and again while another call would end within seconds."""
    deadline = time.perf_counter() + seconds
    while True:
        start = time.perf_counter()
        body()
        now = time.perf_counter()
        if now + (now - start) > deadline:
            return


def end_to_end(run: Run, seconds: float, cli) -> tuple[dict, dict]:
    workload = run.workload
    argv = workload.argv(run.seed, workload.workers) + ["--out", os.path.join(run.tmp, "setup")]
    setup_walls, setup_cpus, setup_loops = measure_setup(argv)
    walls, host_cpus, cpus, loops = [], [], [], []

    def call():
        probe = SpeedProbe()
        wall, cpu = run_operation(run, workload.workers, cli.run, probe)
        walls.append(wall)
        host_cpus.append(cpu)
        cpus.append(probe.to_reference(cpu))
        loops.append(probe.loop_s())

    repeat_for(seconds, call)
    values = {
        "setup_s": statistics.median(
            cpu * REFERENCE_LOOP_S / loop for cpu, loop in zip(setup_cpus, setup_loops)),
        "user_cpu_s": statistics.median(cpus),
        "peak_rss_mb": peak_rss_mb(),
    }
    return values, {
        "wall_s": statistics.median(walls), "setup_wall_s": statistics.median(setup_walls),
        "wall_s_samples": walls, "host_user_cpu_s_samples": host_cpus, "speed_loop_s": loops,
        "setup_cpu_s_samples": setup_cpus, "setup_speed_loop_s": setup_loops,
    }


def per_layer(run: Run, seconds: float, cli) -> tuple[dict, dict]:
    workload = run.workload
    pool_eff = 0.0
    if workload.workers > 1:
        # Pool efficiency needs the real pool, so it comes from an untraced
        # operation that times only the metrics.sweep call.
        before = children_cpu_s()
        with tracer.Tracer(only={"metrics.sweep"}) as timer:
            run_operation(run, workload.workers, cli.run)
        sweep_s = timer.layer_metrics()["metrics.sweep.s"]
        pool_eff = (children_cpu_s() - before) / (workload.workers * sweep_s)
    per_pair, untraced, traced = [], [], []

    def pair():
        untraced.append(run_operation(run, TRACED_WORKERS, cli.run)[0])
        with tracer.Tracer() as spans:
            traced.append(run_operation(run, TRACED_WORKERS, spans.wrap("cli.run", cli.run))[0])
        layer = spans.layer_metrics()
        tracer.require_layers(layer, ("cli.run",) + workload.layers)
        per_pair.append(derived_layer_metrics(layer, pool_eff))

    repeat_for(seconds, pair)
    keys = set().union(*per_pair)
    values = {k: statistics.median(p.get(k, 0) for p in per_pair) for k in keys}
    values["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    return values, {"pairs": len(per_pair)}


def derived_layer_metrics(layer: dict, pool_eff: float) -> dict:
    values = dict(layer)
    candidates = layer.get("policies.select.candidates", 0)
    values.update({
        "engine.self_s": layer.get("engine.run_simulation.self_s", 0.0),
        "cli.self_s": layer["cli.run.self_s"],
        "metrics.write_csv.s": sum(layer.get(f"{w}.s", 0.0) for w in tracer.CSV_WRITERS),
        "metrics.sweep.pool_eff": pool_eff,
        "policies.select.pick_ratio":
            layer.get("policies.select.picked", 0) / candidates if candidates else 0.0,
    })
    return values


def remove_scratch(path: str) -> None:
    """Delete a run's scratch directory, and the shared parent once it is empty."""
    shutil.rmtree(path, ignore_errors=True)
    with contextlib.suppress(OSError):
        TMP_ROOT.rmdir()


def git_commit() -> str:
    """The checked-out commit, or 'unknown' outside a git clone."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # Refuse to run against anything but this checkout's own source tree.
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "gridshare" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: {SRC / 'gridshare'} or {spec_path} not found", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    sys.path.insert(0, str(SRC))
    import numpy
    import gridshare.cli as cli
    if Path(cli.__file__).resolve().parent != SRC / "gridshare":
        print(f"error: imported gridshare from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    TMP_ROOT.mkdir(exist_ok=True)
    run = Run(args.workload, args.seed, tempfile.mkdtemp(prefix="run-", dir=TMP_ROOT))
    try:
        measure = per_layer if args.trace else end_to_end
        values, detail = measure(run, args.seconds, cli)
    except tracer.MissingLayerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        remove_scratch(run.tmp)

    declared = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in declared}
    env = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "workers": TRACED_WORKERS if args.trace else workload.workers,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "commit": git_commit(), **detail,
    }
    print("env " + json.dumps(env, sort_keys=True))
    if args.trace and workload.workers > 1:
        print(f"note: traced operations ran with --workers {TRACED_WORKERS} "
              f"(untraced: {workload.workers}); forked pool workers do not return spans")
    for m in declared:
        print(f"{m['name']:<34} {metrics[m['name']]['value']:.6g} {m['unit']}")
    if not args.trace:
        print(f"{'wall_s (not gated)':<34} {detail['wall_s']:.6g} s")
    print(f"{'failed_frac':<34} {run.failed / max(1, run.attempted):.6g} "
          f"({run.failed}/{run.attempted} {workload.unit})")
    for problem in run.problems:
        print(f"check failed: {problem}")
    correct = run.failed == 0 and run.attempted > 0
    print(json.dumps({
        "correct": correct, "attempted": run.attempted, "failed": run.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
