"""Pause Python's cyclic garbage collector for a call (DESIGN.md §6.5)."""

import gc
from functools import wraps


def pauses_collector(function):
    """Run ``function`` with the collector off, restored however it ends.

    A collector that is off already (a nested call, or a caller that
    turned it off) is left alone.
    """

    @wraps(function)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return function(*args, **kwargs)
        gc.disable()
        try:
            return function(*args, **kwargs)
        finally:
            gc.enable()

    return paused
