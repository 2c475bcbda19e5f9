"""Rate limit for repeated warnings about one counter."""


def crossed_power_of_two(before: int, after: int) -> bool:
    """Whether a counter moving from *before* to *after* passed 1, 2, 4,
    8, ... — warn then, so a fault that repeats logs O(log n) lines."""
    return after.bit_length() > before.bit_length()
