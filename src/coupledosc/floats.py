"""Float limits, input guards and float text: the part of the core that needs only math.

Every module that takes an eta or builds a table checks it here, and every float the
package writes as text has the format of format_floats. check_eta is the one eta guard:
each closed form passes it the |eta| where the form overflows, before checking any other
argument. Importing this module loads no numpy, so the closed-form paths (entanglement's
scalar functions and the sweep command) start without it.
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


def as_float(x) -> float:
    """float(x) for a number from outside, with an int past the float range read as +-inf."""
    try:
        return float(x)
    except OverflowError:  # an int past the float range
        return math.inf if x > 0 else -math.inf


def check_eta(eta, limit: float = math.inf, form: str = "") -> float:
    """eta as a float; ValueError unless it is finite, and EtaRangeError when |eta| is past
    ``limit``, the |eta| beyond which the closed form ``form`` overflows a float."""
    eta = as_float(eta)
    if not math.isfinite(eta):
        raise ValueError("eta must be finite")
    if abs(eta) > limit:
        usable = math.floor(limit * 100.0) / 100.0
        raise EtaRangeError(f"|eta| = {abs(eta):g} overflows {form}; the usable range is |eta| <= {usable:g}")
    return eta


def nonfinite_error(form: str, inputs: dict, remedy: str) -> ValueError:
    """The error for a scalar ``form`` whose value is not finite, built on that branch only.

    It names the non-finite input when one of ``inputs`` (name -> float) is one, and
    otherwise the overflow and ``remedy``, how to stay inside the float range.
    """
    shown = ", ".join(f"{name} = {value:g}" for name, value in inputs.items())
    if all(math.isfinite(value) for value in inputs.values()):
        return ValueError(f"{form} overflows a float at {shown}; {remedy}")
    return ValueError(f"{form} needs finite inputs, got {shown}")


def check_table_size(values: int, table: str, remedy: str) -> None:
    """ValueError when ``table``, of ``values`` floats, would exceed MAX_TABLE_VALUES.

    Callers check before they allocate; ``remedy`` says how to stay under the cap.
    """
    if values > MAX_TABLE_VALUES:
        raise ValueError(f"{table} ({values} values) exceeds the cap of {MAX_TABLE_VALUES}; {remedy}")


def format_floats(values) -> list[str]:
    """Each float of ``values`` as %.15g text, the one format of every written float."""
    return ["%.15g" % v for v in values]
