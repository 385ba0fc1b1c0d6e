"""Time and energy unit conventions shared by every module.

Time is discrete: the quantum is a 5-minute charging slot, 288 per day.
Energy is measured in miles-of-range (1 mile = 0.28 kWh), which makes the
required charge for a trip equal to the trip distance.
"""

SLOT_MINUTES = 5
SLOTS_PER_HOUR = 12
SLOTS_PER_DAY = 288

KWH_PER_MILE = 0.28


def hours_to_slots(hours: float) -> int:
    """Convert hours to whole slots, rounding to nearest."""
    return round(hours * SLOTS_PER_HOUR)
