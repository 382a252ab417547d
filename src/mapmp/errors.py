"""Exception types shared across the package, and the input checks that
raise them: every integer, real-number, label-count, array and shape rule
is stated here once, so a bad value gets the same message wherever it
enters."""

import math
import operator

import numpy as np


class ValidationError(ValueError):
    """Invalid model, assignment, configuration, or unparseable input file."""


class OracleGuardError(RuntimeError):
    """An exact oracle refused an instance exceeding its size guard."""


def integer(name: str, value, least: int | None = None) -> int:
    """``value`` as an int, at least ``least`` if given; a float, even a
    whole one, is a ``ValidationError`` rather than a silent truncation."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ValidationError(f"{name} must be an integer, got {value}") from None
    if least is not None and value < least:
        raise ValidationError(f"{name} must be >= {least}, got {value}")
    return value


def real(name: str, value, rule: str = "positive") -> float:
    """``value`` as a float that is finite and, by ``rule``, "positive",
    "nonnegative" or of either sign ("finite").  Anything else, a str or
    None included, is a ``ValidationError`` naming ``name``."""
    try:
        if math.isfinite(value) and (
            value > 0 or rule == "finite" or rule == "nonnegative" and value == 0
        ):
            return float(value)
    except (TypeError, ArithmeticError):  # not a number, or an int past a double
        pass
    wanted = "finite" if rule == "finite" else f"a {rule} finite number"
    raise ValidationError(f"{name} must be {wanted}, got {value}")


def label_count(d) -> int:
    """``d`` as an int, at least two labels per vertex: checked as an
    integer first, as ``integer`` names it, then against the floor."""
    d = integer("d", d)
    if d < 2:
        raise ValidationError(f"need at least two labels per vertex, got d={d}")
    return d


def array(name: str, value, dtype=None, shape=None, copy=True, order="K") -> np.ndarray:
    """A caller's array argument as an array of ``shape`` if given; one NumPy
    cannot build, of another shape, or, when ``dtype`` is given, of strings or
    complex numbers, is a ``ValidationError`` naming ``name``."""
    try:
        kind = np.asarray(value).dtype.kind if dtype is not None else None
        if kind == "c":  # refused before the cast, which would warn and drop the imaginary parts
            raise TypeError("complex values are not real numbers")
        a = np.array(value, dtype=dtype, copy=copy, order=order)
        if kind in ("S", "U"):  # the cast has named any string that is not a number
            raise TypeError("strings are not real numbers")
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"{name} is not a numeric array: {exc}") from None
    if shape is not None and a.shape != shape:
        raise ValidationError(f"{name} has shape {a.shape}, expected {shape}")
    return a


def real_axes(name: str, value, axes: tuple) -> np.ndarray:
    """A real array argument as float64, one axis per entry of ``axes``; no model fixes their extents."""
    a = array(name, value, np.float64, copy=None)
    if a.ndim != len(axes):
        raise ValidationError(f"{name} has shape {a.shape}, expected ({', '.join(axes)})")
    return a


def check_marginal_shapes(model, mu, nu=None):
    """``mu``'s vertex and edge blocks and a slack offset ``nu`` (None stays
    None) as float arrays of the shapes that fit ``model``."""
    n, m, d = model.n, model.m, model.d
    vertex = array("mu.vertex", mu.vertex, np.float64, (n, d), copy=None)
    edge = array("mu.edge", mu.edge, np.float64, (m, d, d), copy=None)
    if nu is not None:
        nu = array("slack offset", nu, np.float64, (m, 2, d), copy=None)
    return vertex, edge, nu


def check_assignment(model, assignment) -> np.ndarray:
    """Coerce to an int64 label vector and validate length and label range."""
    labels = array("assignment", assignment, np.float64, (model.n,), copy=None)
    if not np.array_equal(np.rint(labels), labels):
        raise ValidationError("assignment labels must be integers")
    if labels.min(initial=0) < 0 or labels.max(initial=0) >= model.d:
        raise ValidationError(f"assignment labels must lie in 0..{model.d - 1}")
    return labels.astype(np.int64)
