"""Float limits, input guards and float text: the part of the core that needs only math.

Every module that takes an eta or builds a table checks it here, and every
float the package writes as text has the format of format_floats. Importing
this module loads no numpy, so the closed-form paths (entanglement's scalar
functions and the sweep command) start without it.
"""

import math
import sys

# |eta| beyond which math.cosh(eta) and math.exp(eta) overflow
COSH_ETA_MAX, EXP_ETA_MAX = math.acosh(sys.float_info.max), math.log(sys.float_info.max)

# largest table of floats any call builds: 2^24, 128 MiB. A Hermite table is (k_max + 1) x
# points, a grid is used as a count x count mesh, a parton export or sweep has a row per point.
MAX_TABLE_VALUES = 1 << 24


class EtaRangeError(ValueError):
    """Raised when eta is finite but a closed form overflows a float there."""


def check_eta(eta) -> float:
    """eta as a float; ValueError unless it is finite."""
    try:
        eta = float(eta)
    except OverflowError:  # an int past the float range
        eta = math.inf
    if not math.isfinite(eta):
        raise ValueError("eta must be finite")
    return eta


def check_table_size(values: int, table: str, remedy: str) -> None:
    """ValueError when ``table``, of ``values`` floats, would exceed MAX_TABLE_VALUES.

    Callers check before they allocate; ``remedy`` says how to stay under the cap.
    """
    if values > MAX_TABLE_VALUES:
        raise ValueError(f"{table} ({values} values) exceeds the cap of {MAX_TABLE_VALUES}; {remedy}")


def eta_range_error(eta: float, form: str, limit: float) -> EtaRangeError:
    """The error for an eta at which ``form`` overflows, as it does beyond |eta| = ``limit``."""
    usable = math.floor(limit * 100.0) / 100.0
    return EtaRangeError(f"|eta| = {abs(eta):g} overflows {form}; the usable range is |eta| <= {usable:g}")


def format_floats(values) -> list[str]:
    """Each float of ``values`` as %.15g text, the one format of every written float."""
    return ["%.15g" % v for v in values]
