"""Exception hierarchy shared by all hmrkit modules.

Every error carries a stable ``code`` attribute so the CLI can emit
machine-readable error objects without string matching on messages.
:func:`input_field` reads one field of a JSON input body and turns every
way it can be malformed into :class:`InvalidInput` naming the field;
:func:`input_int` is how its parsers read an integer, so a float, a string
or a boolean where an integer belongs is malformed, not truncated, and
:func:`input_float` is how they read a real number, so a string or a
boolean where a number belongs is malformed, not converted.
"""

from __future__ import annotations

import operator


class HmrkitError(Exception):
    """Base class for all hmrkit errors."""

    code = "error"


class ShapeMismatch(HmrkitError):
    """Matrix or block dimensions are inconsistent."""

    code = "shape_mismatch"


class CompositionNonzero(HmrkitError):
    """A composite of differentials that must vanish does not."""

    code = "composition_nonzero"


class GradingViolation(HmrkitError):
    """A differential entry connects generators with the wrong grading gap."""

    code = "grading_violation"


class DegenerateSpectrum(HmrkitError):
    """Eigenvalues of a fiber matrix are not simple/zero-free within tolerance."""

    code = "degenerate_spectrum"


class InvalidInput(HmrkitError):
    """An input value is out of its domain, e.g. a zero or infinite step."""

    code = "invalid_input"


class MalformedJson(InvalidInput):
    """An input body is not UTF-8 JSON text that can be read."""

    code = "malformed_json"


class StepTooLarge(HmrkitError):
    """The ODE step times the largest |eigenvalue| exceeds the RK4 bound.

    Past the bound the RK4 propagator can reorder the eigenmodes, and
    with them the limit of the flow.
    """

    code = "step_too_large"


class MalformedOrbitMap(HmrkitError):
    """Equivariant CW orbit data violates its structural invariants."""

    code = "malformed_orbit_map"


class NotChainMap(HmrkitError):
    """A cochain-level map fails to commute with the coboundaries."""

    code = "not_chain_map"


class NotCocycle(HmrkitError):
    """The supplied cochain is not closed."""

    code = "not_cocycle"


class NotDivisibleBy8(HmrkitError):
    """c1^2 - sigma is not divisible by 8; topological input is inconsistent."""

    code = "not_divisible_by_8"


class OddPairing(HmrkitError):
    """A cup-product pairing that must be even is odd."""

    code = "odd_pairing"


class NotCoprime(HmrkitError):
    """Integer parameters required to be coprime are not."""

    code = "not_coprime"


class UnknownFamily(HmrkitError):
    """The requested Brieskorn family is outside the supported table."""

    code = "unknown_family"


_REQUIRED = object()


def input_field(body, name: str, parse, default=_REQUIRED):
    """``parse(body[name])``; a missing or null field gives ``default``.

    A body that is not a JSON object, a missing required field, and a
    value that ``parse`` rejects with KeyError, TypeError, ValueError or
    IndexError all raise InvalidInput naming the field.  Only parsing
    belongs in ``parse``: errors of a computation must not be caught here.
    """
    if not isinstance(body, dict):
        raise InvalidInput(
            f"input must be a JSON object, not {type(body).__name__}")
    value = body.get(name)
    if value is None:
        if default is _REQUIRED:
            raise InvalidInput(f"input field {name!r} is required")
        return default
    try:
        return parse(value)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise InvalidInput(f"input field {name!r} is malformed: "
                           f"{type(exc).__name__}: {exc}") from None


def input_int(value) -> int:
    """An integer of an input body: what ``operator.index`` accepts, but
    not a boolean.  Anything else raises TypeError."""
    if isinstance(value, bool):
        raise TypeError(f"expected an integer, got {value!r}")
    return operator.index(value)


def input_list(value) -> list:
    """An array of an input body; an object or a string raises TypeError."""
    if not isinstance(value, list):
        raise TypeError(f"expected an array, got {type(value).__name__}")
    return value


def input_pair(value) -> tuple:
    """Two integers of an input body, as an array of two: a position
    [row, col] or a cell [degree, index]."""
    pair = input_list(value)
    if len(pair) != 2:
        raise ValueError(f"expected a pair of integers, got an array of "
                         f"{len(pair)}")
    return input_int(pair[0]), input_int(pair[1])


def input_object(value) -> dict:
    """An object of an input body; an array or a string raises TypeError."""
    if not isinstance(value, dict):
        raise TypeError(f"expected an object, got {type(value).__name__}")
    return value


def input_float(value) -> float:
    """A real number of an input body: a JSON integer or float, not a
    boolean and not a string.  A string raises ValueError, with the
    message ``float`` gives for one it cannot read; anything else that is
    not a number raises TypeError."""
    if isinstance(value, str):
        raise ValueError(f"could not convert string to float: {value!r}")
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError("the integer is too large for a float") from None
