"""Span tracer that wraps gridshare's layer functions from outside the program.

Each wrapped call records one span ``[name, start_ns, end_ns, parent]``
in memory, where ``parent`` is the index of the enclosing wrapped call
(-1 for none). Wrappers replace every binding of the original function
in every loaded ``gridshare`` module, because ``engine`` binds ``select``
by name, and ``cli`` and ``metrics`` bind ``generate_fleet``,
``make_grid`` and ``run_simulation`` by name: patching only the defining
module would miss those calls.

Only layer boundaries are wrapped. The per-vehicle helpers (priority
keys, ``make_vehicle``, ``charge_intervals_required``) run millions of
times per cell, so spans there would measure the tracer, not the program.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict

LAYER_FUNCTIONS = {
    "workload": ("generate_fleet",),
    "powergrid": ("make_grid", "day_capacity_profile"),
    "policies": ("update_membership", "select"),
    "engine": ("run_simulation",),
    "metrics": (
        "sweep", "build_report",
        "write_fod_csv", "write_adfd_csv", "write_delaydist_csv", "write_outcomes_csv",
    ),
    "figures": ("emit_figures",),
    "oracle": (
        "random_tiny_instance", "brute_force_min_max_delay", "run_policy_on_instance",
        "read_trace", "audit_trace",
    ),
}

CSV_WRITERS = (
    "metrics.write_fod_csv", "metrics.write_adfd_csv",
    "metrics.write_delaydist_csv", "metrics.write_outcomes_csv",
)


class MissingLayerError(RuntimeError):
    """A layer the workload must exercise recorded no calls."""


class Tracer:
    """Records spans and counts while installed; restores the program on exit."""

    def __init__(self, only=None):
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._open: list[int] = [-1]  # indices of unfinished spans; -1 = no parent
        self._patches: list[tuple[object, str, object]] = []
        self._only = None if only is None else set(only)

    def wrap(self, name, fn, before=None, after=None):
        """Return fn wrapped to record a span named `name` per call.

        before(args, kwargs) runs before the span opens and its result is
        handed to after(args, kwargs, result, pre) once the span closes.
        """
        spans, open_, clock = self.spans, self._open, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            pre = before(args, kwargs) if before else None
            index = len(spans)
            span = [name, 0, 0, open_[-1]]
            spans.append(span)
            open_.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                open_.pop()
            if after:
                after(args, kwargs, result, pre)
            return result

        return wrapper

    def __enter__(self):
        try:
            self._install()
        except BaseException:
            self.__exit__()
            raise
        return self

    def _install(self):
        modules = [m for key, m in sys.modules.items()
                   if key == "gridshare" or key.startswith("gridshare.")]
        for module_name, functions in LAYER_FUNCTIONS.items():
            defining = sys.modules[f"gridshare.{module_name}"]
            for function in functions:
                name = f"{module_name}.{function}"
                if self._only is not None and name not in self._only:
                    continue
                original = getattr(defining, function, None)
                if original is None:
                    raise MissingLayerError(f"gridshare.{name} no longer exists")
                before, after = _HOOKS.get(name, (None, None))
                wrapper = self.wrap(
                    name, original,
                    before and functools.partial(before, self.counts),
                    after and functools.partial(after, self.counts),
                )
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patches.append((module, attr, original))
                            setattr(module, attr, wrapper)

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()
        return False

    def layer_metrics(self) -> dict[str, float]:
        """Per-name inclusive seconds, self seconds and call counts, plus counts."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        inclusive, own, calls = defaultdict(int), defaultdict(int), defaultdict(int)
        for index, (name, start, end, _) in enumerate(self.spans):
            inclusive[name] += end - start
            own[name] += end - start - child_ns[index]
            calls[name] += 1
        out: dict[str, float] = {}
        for name in calls:
            out[f"{name}.s"] = inclusive[name] / 1e9
            out[f"{name}.self_s"] = own[name] / 1e9
            out[f"{name}.calls"] = calls[name]
        out.update(self.counts)
        return out


def require_layers(metrics: dict, names) -> None:
    missing = [n for n in names if not metrics.get(f"{n}.calls")]
    if missing:
        raise MissingLayerError(
            "layers recorded zero calls: " + ", ".join(missing)
            + " (a function was moved or renamed; update perfbench/tracer.py)"
        )


# ---------------------------------------------------------------------------
# Count hooks. Each receives the tracer's counts dict first.


def _select_before(counts, args, kwargs):
    state = args[1] if len(args) > 1 else kwargs["state"]
    counts["policies.select.candidates"] += len(state.deficit) + len(state.topoff)


def _select_after(counts, args, kwargs, result, pre):
    counts["policies.select.picked"] += len(result)


def _fleet_after(counts, args, kwargs, result, pre):
    counts["workload.vehicles"] += len(result)


def _run_before(counts, args, kwargs):
    stats = kwargs.get("stats")
    slots = None if stats is None else (stats.slots_run, stats.total_selections)
    return slots, counts["policies.select.candidates"]


def _run_after(counts, args, kwargs, result, pre):
    slots, candidates = pre
    stats = kwargs.get("stats")
    if stats is not None:
        counts["engine.slots"] += stats.slots_run - slots[0]
        counts["engine.selections"] += stats.total_selections - slots[1]
    trace_path = kwargs.get("trace_path")
    if trace_path:
        # The engine writes one trace row per select candidate.
        counts["engine.trace_rows"] += counts["policies.select.candidates"] - candidates
        counts["engine.trace_bytes"] += os.path.getsize(trace_path)


# name -> (before, after)
_HOOKS = {
    "policies.select": (_select_before, _select_after),
    "workload.generate_fleet": (None, _fleet_after),
    "engine.run_simulation": (_run_before, _run_after),
}
