"""Exception hierarchy shared across the toolkit, and the rules that turn
malformed input into SchemaError.

Keeping these in one place lets the CLI map error classes to stable exit
codes without importing every module.  Every JSON document is read by
`parse_doc`, and each decoder runs under `decoding`.
"""

import json
import math
import numbers
from contextlib import contextmanager


class NanoposeError(Exception):
    """Base class for all toolkit errors."""


class SchemaError(NanoposeError):
    """A serialized artifact (JSON graph, QTNS file, config) is malformed."""


class ConstraintError(NanoposeError):
    """A hard resource or range constraint was violated."""


class DegenerateLayerError(NanoposeError):
    """A tensor has no usable dynamic range (w_max <= w_min)."""


class DeadActivationError(NanoposeError):
    """Calibration found activations that never exceed zero."""

    def __init__(self, layers):
        self.layers = list(layers)
        super().__init__(f"dead activations in layers: {', '.join(self.layers)}")


class AccumulatorOverflowError(ConstraintError):
    """An integer accumulation left the representable range."""


class RequantParameterError(SchemaError):
    """Requantization parameters break the integer engine's 32-bit contract."""


class ConversionError(NanoposeError):
    """Float-to-integer graph conversion failed."""

    def __init__(self, layer, message):
        self.layer = layer
        super().__init__(f"layer {layer}: {message}")


class UntileableLayerError(ConstraintError):
    """No tile of the layer fits the scratchpad budget."""


class PlanConstraintError(ConstraintError):
    """A graph does not fit the memory hierarchy, so it has no deployment plan."""


class FitError(NanoposeError):
    """Cost-model parameter calibration failed."""


def parse_doc(text, where: str, fmt: str = None) -> dict:
    """Parse one JSON document (str or UTF-8 bytes) that must be an object,
    and, when fmt is given, a version 1 document of that format."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as e:   # malformed, too deeply nested or not UTF-8
        raise SchemaError(f"{where}: not valid JSON: {e}") from e
    if not isinstance(doc, dict):
        raise SchemaError(f"{where}: expected a JSON object")
    if fmt is not None:
        check_format(doc, where, fmt)
    return doc


def check_format(doc: dict, where: str, fmt: str):
    """Raise SchemaError unless doc says it is a version 1 fmt document."""
    if (doc.get("format"), doc.get("version")) != (fmt, 1):
        raise SchemaError(f"{where}: not a version 1 {fmt} document")


@contextmanager
def decoding(where: str):
    """Turn a missing key or a mistyped value met while decoding into SchemaError."""
    try:
        yield
    except (KeyError, IndexError, TypeError, ValueError, AttributeError) as e:
        raise SchemaError(f"{where}: missing or mistyped field: {e}") from e


def finite_real(v) -> bool:
    """True for a real number that is a finite float; bools are not numbers
    here, and an integer beyond the float range is not finite."""
    try:
        return isinstance(v, numbers.Real) and not isinstance(v, bool) and math.isfinite(float(v))
    except OverflowError:
        return False


def require_positive(obj, *names):
    """Raise SchemaError unless each named field of obj is finite and > 0."""
    for name in names:
        v = getattr(obj, name)
        if not (finite_real(v) and v > 0):
            raise SchemaError(f"{type(obj).__name__}.{name} must be finite and > 0, got {v!r}")


def as_str(v) -> str:
    """A document string; ValueError otherwise."""
    if not isinstance(v, str):
        raise ValueError(f"expected a string, got {v!r}")
    return v
