"""Built-in stand-in curves for the two survey-derived inputs.

Neither source table is published at slot resolution, so these are
synthetic stand-ins with the documented qualitative features:

* a 24-bin leave-home histogram with a single morning peak at 7-8 a.m.
  (arrival weights are this table rotated 10 hours later in the day);
* a normalized residential background-load curve with a night trough
  around 0.6 of peak and an evening peak of exactly 1.0.

Both are overridable from plain-text column files (one value per line)
via the CLI, and every run directory receives a materialized copy so a
run can be reproduced from its outputs alone.
"""

from __future__ import annotations

import math

from .units import SLOTS_PER_DAY, SLOTS_PER_HOUR

# Fraction of commuters leaving home in each hour 0..23.  Normalized at
# import time; the raw weights only fix the shape (peak in hour 7).
_LEAVE_HOME_WEIGHTS = (
    0.006, 0.004, 0.004, 0.006, 0.014, 0.050,
    0.120, 0.200, 0.140, 0.078, 0.042, 0.028,
    0.026, 0.022, 0.026, 0.034, 0.042, 0.038,
    0.028, 0.022, 0.018, 0.016, 0.014, 0.012,
)

# Home arrivals lag the leave-home curve by a work day plus commuting
# and errands: 10 hours.
ARRIVAL_SHIFT_HOURS = 10


def default_hourly_arrival_weights() -> list[float]:
    """24 hourly arrival weights (sum 1), leave-home table shifted +10 h."""
    total = math.fsum(_LEAVE_HOME_WEIGHTS)
    shifted = [0.0] * 24
    for hour, w in enumerate(_LEAVE_HOME_WEIGHTS):
        shifted[(hour + ARRIVAL_SHIFT_HOURS) % 24] = w / total
    return shifted


def _circular_hour_distance(h: float, center: float) -> float:
    d = abs(h - center) % 24.0
    return min(d, 24.0 - d)


def _bump(h: float, center: float, width: float) -> float:
    return math.exp(-((_circular_hour_distance(h, center) / width) ** 2))


def default_load_shape_values() -> list[float]:
    """288 per-slot values of the non-vehicle load curve, peak exactly 1.

    Night trough near 0.6 in the small hours, a morning shoulder, a
    shallow midday plateau, and a broad evening peak at 7:30 p.m.
    """
    raw = []
    for slot in range(SLOTS_PER_DAY):
        h = slot / SLOTS_PER_HOUR
        v = (
            0.58
            + 0.13 * _bump(h, 9.0, 2.6)
            + 0.10 * _bump(h, 14.5, 3.5)
            + 0.42 * _bump(h, 19.5, 4.0)
        )
        raw.append(v)
    peak = max(raw)
    return [v / peak for v in raw]


def write_column_file(path, values, header: str | None = None) -> None:
    """Write a one-value-per-line column file (the config bundle format)."""
    with open(path, "w", encoding="utf-8") as fh:
        if header:
            fh.write(f"# {header}\n")
        for v in values:
            fh.write(f"{v:.12g}\n")


def read_column_file(path) -> list[float]:
    """Read a one-value-per-line column file; '#' lines are comments."""
    values = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            try:
                value = float(text)
            except ValueError:
                raise ValueError(f"{path}:{lineno}: not a number: {text!r}") from None
            if not math.isfinite(value):
                raise ValueError(f"{path}:{lineno}: not a finite number: {text!r}")
            values.append(value)
    return values
