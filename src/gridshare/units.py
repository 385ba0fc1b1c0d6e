"""Time and energy unit conventions shared by every module.

Time is discrete: the quantum is a 5-minute charging slot, 288 per day.
Energy is measured in miles-of-range (1 mile = 0.28 kWh), which makes the
required charge for a trip equal to the trip distance.
"""

import numpy as np

SLOT_MINUTES = 5
SLOTS_PER_HOUR = 12
SLOTS_PER_DAY = 288

KWH_PER_MILE = 0.28


def hours_to_slots(hours):
    """Whole slots nearest to each of a column of hours, as int64; ties go to even, as round() breaks them."""
    return np.rint(np.multiply(hours, SLOTS_PER_HOUR)).astype(np.int64)
