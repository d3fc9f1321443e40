"""Float limits, input guards, float text and the text sink: the core that needs only math.

Every module that takes an eta, a count or builds a table checks it here; every float the
package writes has the format of format_floats, and every file it writes goes through
write_text. check_eta is the one eta guard: each closed form passes it the |eta| where the
form overflows, before checking any other argument. check_count is the one count guard:
every truncation order, node count and row count passes it. record makes the frozen result
types without dataclasses. Importing this module loads no numpy, so the closed-form paths
(entanglement's scalar functions and sweep) start without it; as_floats imports it when called.
"""

import math
import operator
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


def as_floats(values, name: str, dtype=float):
    """np.asarray(values, dtype) for numbers from outside, an array of ints past int64 read as
    floats; ValueError naming ``name`` for an int past the float range. Imports numpy."""
    import numpy as np

    try:
        a = np.asarray(values, dtype)
        return a.astype(float) if a.dtype == object else a
    except OverflowError:  # an int past the float range
        raise ValueError(f"{name} must be finite, got an int past the float range") from None


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


def check_count(value, name: str, low: int, high: float = math.inf) -> int:
    """``value`` as an int; ValueError naming ``name`` unless it is an integer in [low, high].

    An int, a numpy integer or an integral float (64.0 is 64) passes; a bool, a fractional
    or non-finite float and any other type do not.
    """
    try:
        count = operator.index(value)  # an int or a numpy integer, but a bool is an int too
    except TypeError:
        count = int(value) if isinstance(value, float) and value.is_integer() else None
    if count is None or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if count < low:
        raise ValueError(f"{name} must be {'nonnegative' if low == 0 else f'at least {low}'}, got {count}")
    if count > high:
        raise ValueError(f"{name} must be at most {high}, got {count}")
    return count


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


def write_text(dest, chunks) -> None:
    """Write the strings ``chunks`` to ``dest``, an open text file or a path: the one text sink.
    Only this opens a path (UTF-8, LF endings), so a check that fails first leaves it untouched."""
    if hasattr(dest, "write"):
        dest.writelines(chunks)
    else:
        with open(dest, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(chunks)


def _frozen(self, name, *value):
    raise AttributeError(f"cannot {'assign to' if value else 'delete'} field {name!r}")


def _record_eq(self, other):
    return self.__dict__ == other.__dict__ if other.__class__ is self.__class__ else NotImplemented


def _record_hash(self):
    return hash(tuple(self.__dict__.values()))


def _record_repr(self):
    fields = ", ".join(f"{name}={value!r}" for name, value in self.__dict__.items())
    return f"{self.__class__.__qualname__}({fields})"


def record(cls):
    """Make ``cls`` a frozen record, as @dataclass(frozen=True) would, without its imports.

    The fields are the class's own annotations, in order, with defaults from class attributes.
    __init__ is compiled from them once, as in dataclasses, so Python binds and checks its
    arguments; then it calls __post_init__, if any. The instance dict holds exactly the fields
    in order, so vars() lists them and == and hash compare the field tuple. repr is dataclass's.
    """
    names = tuple(cls.__annotations__)
    params = ", ".join(f"{name}=defaults[{name!r}]" if name in cls.__dict__ else name for name in names)
    fields = ", ".join(f"{name!r}: {name}" for name in names)
    post_init = "\n    self.__post_init__()" if hasattr(cls, "__post_init__") else ""
    namespace = {"defaults": cls.__dict__, "adopt": object.__setattr__}
    exec(f"def __init__(self, {params}):\n    adopt(self, '__dict__', {{{fields}}}){post_init}", namespace)
    cls.__init__, cls.__match_args__ = namespace["__init__"], names
    cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"
    cls.__setattr__ = cls.__delattr__ = _frozen
    cls.__eq__, cls.__hash__, cls.__repr__ = _record_eq, _record_hash, _record_repr
    return cls
