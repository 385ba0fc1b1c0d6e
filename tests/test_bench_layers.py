"""The benchmark's layer spans still find the program's functions.

perfbench/tracer.py wraps gridshare functions by module and name, and a
traced benchmark run fails when a layer its workload needs records no
calls. These tests make a rename or a move fail here, not at benchmark
time.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from gridshare import cli

_RUN_PY = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"
_spec = importlib.util.spec_from_file_location("perfbench_run", _RUN_PY)
bench = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)
tracer = bench.tracer

TINY = ["--days", "4", "--arrivals-per-day", "80"]
# A small version of each benchmark workload's command.
COMMANDS = {
    "cell-dt-tight": ["simulate", "--policy", "minmax-dt", "--sdr", "1.05", "--seed", "1", *TINY],
    "sweep-mix": ["sweep", "--policies", "fcfs,minmax-dt", "--sdr-grid", "1.2,2.0",
                  "--seeds", "1", "--workers", "1", *TINY],
    "verify-oracle": ["verify", "--instances", "2", "--oracle-seed", "1"],
}


def test_every_layer_function_exists():
    for module_name, functions in tracer.LAYER_FUNCTIONS.items():
        module = importlib.import_module(f"gridshare.{module_name}")
        for function in functions:
            assert callable(getattr(module, function, None)), f"gridshare.{module_name}.{function}"


@pytest.mark.parametrize("workload", COMMANDS)
def test_command_fires_the_workload_layers(workload, tmp_path, capsys):
    with tracer.Tracer() as spans:
        assert cli.run(COMMANDS[workload] + ["--out", str(tmp_path)]) == cli.EXIT_OK
    metrics = spans.layer_metrics()
    tracer.require_layers(metrics, bench.WORKLOADS[workload].layers)
    # The engine's span hooks read `stats` and `trace_path` as keywords.
    assert metrics["engine.slots"] > 0
    # The select hook counts picks as the length of what select returns.
    # Every verify run is traced, so select switches on every vehicle the
    # engine does; an untraced run charges its uncontended slots as
    # stretches, without select.
    picked, selections = metrics["policies.select.picked"], metrics["engine.selections"]
    if workload == "verify-oracle":
        assert picked == selections > 0
        assert metrics["engine.trace_rows"] > 0
    else:
        assert 0 < picked < selections
