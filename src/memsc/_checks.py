"""Argument checks shared by the configuration boundaries."""

import sys

import numpy as np


def is_int(value) -> bool:
    """True for a Python or numpy integer; bools and integral floats are not."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def is_real(value) -> bool:
    """True for a Python or numpy float, or an int a float can hold; bools and strings are not."""
    if is_int(value):  # a Python int can outgrow every float
        return -sys.float_info.max <= value <= sys.float_info.max
    return isinstance(value, (float, np.floating))
