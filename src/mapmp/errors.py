"""Exception types shared across the package, and the input checks that
raise them: every integer, real-number, label-count and marginal-shape rule
is stated here once, so a bad value gets the same message wherever it
enters."""

import math
import operator


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


def check_labels(d) -> None:
    """Reject fewer than two labels per vertex, NaN included.  A ``d`` that
    is not a number is left to ``integer``, which names it."""
    try:
        few = not d >= 2
    except TypeError:
        return
    if few:
        raise ValidationError(f"need at least two labels per vertex, got d={d}")


def check_marginal_shapes(model, mu, nu=None) -> None:
    """Reject marginal blocks ``mu``, or a slack offset ``nu``, whose shape
    does not fit ``model``."""
    n, m, d = model.n, model.m, model.d
    for what, a, shape in (("vertex blocks have", mu.vertex, (n, d)),
                           ("edge blocks have", mu.edge, (m, d, d)), ("slack offset has", nu, (m, 2, d))):
        if a is not None and a.shape != shape:
            raise ValidationError(f"{what} shape {a.shape}, expected {shape}")
