"""Checked records type each scalar field by its annotation and range it
with ``bounded``; ``check_fields`` checks both and never converts a value."""

import dataclasses
import math
import sys
from typing import Any

_MAX = sys.float_info.max
# A bool is an int to Python, so only a bool field takes one.
_ACCEPTS = {"int": int, "float": (int, float), "bool": bool, "str": str}
_UNBOUNDED = (-math.inf, math.inf, False, False, "")


def bounded(default: Any, low: float = -math.inf, high: float = math.inf, *,
            open_low: bool = False, open_high: bool = False) -> Any:
    """A field that must lie in [low, high]; an ``open_`` flag excludes that end."""
    label = f"{'(' if open_low else '['}{low:g}, {high:g}{')' if open_high else ']'}"
    return dataclasses.field(default=default, metadata={"range": (low, high, open_low, open_high, label)})


def check_fields(record: Any) -> None:
    """Raise ValueError naming the first field of the wrong type or out of range.

    A field of any other type, such as a nested record, is left to that
    record's own constructor."""
    for item in dataclasses.fields(record):
        name, kind, value = item.name, item.type, getattr(record, item.name)
        accepts = _ACCEPTS.get(kind)
        if accepts is None:
            continue
        if not isinstance(value, accepts) or (isinstance(value, bool) and kind != "bool"):
            raise ValueError(f"{name} must be {kind}, got {value!r}")
        if kind in ("bool", "str"):
            continue
        # Compared, not math.isfinite: that raises OverflowError on a huge int.
        if not -_MAX <= value <= _MAX:
            raise ValueError(f"{name} must be finite, got {value!r}")
        low, high, open_low, open_high, label = item.metadata.get("range", _UNBOUNDED)
        if (value <= low if open_low else value < low) or (value >= high if open_high else value > high):
            raise ValueError(f"{name} must be in {label}, got {value!r}")


class Checked:
    """Base of a checked record: its fields are checked whenever it is built."""

    def __post_init__(self) -> None:
        check_fields(self)
