"""Argument checks shared by the configuration boundaries."""

import numpy as np


def is_int(value) -> bool:
    """True for a Python or numpy integer; bools and integral floats are not."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def is_real(value) -> bool:
    """True for a Python or numpy int or float; bools and strings are not."""
    return is_int(value) or isinstance(value, (float, np.floating))
