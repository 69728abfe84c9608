"""Exception hierarchy shared by all hmrkit modules.

Every error carries a stable ``code`` attribute so the CLI can emit
machine-readable error objects without string matching on messages.
:func:`input_field` reads one field of a JSON input body and turns every
way it can be malformed into :class:`InvalidInput` naming the field.  Its
reasons are hmrkit's own words, the same under every Python version: they
name a value by its JSON type, and a float, string or boolean where an
integer belongs is malformed, not truncated or converted.
"""

from __future__ import annotations

import json
import math


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


class FileNotFound(InvalidInput):
    """A file named by a flag, or its directory, does not exist."""

    code = "file_not_found"


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


def input_field(body, name: str, parse, default=...):
    """``parse(body[name])``; a missing or null field gives ``default``,
    and is required when no default is given.

    A body that is not a JSON object, a missing required field, and a
    value that ``parse`` rejects all raise InvalidInput naming the field.
    ``parse`` rejects with a TypeError or ValueError whose message is the
    reason, or with the KeyError of a missing key; the class is not shown.
    Errors of a computation must not be raised inside ``parse``.
    """
    if not isinstance(body, dict):
        raise InvalidInput(
            f"input must be a JSON object, got {json_words(body)}")
    value = body.get(name)
    if value is None:
        if default is ...:
            raise InvalidInput(f"input field {name!r} is required")
        return default
    try:
        return parse(value)
    except KeyError as exc:
        reason = f"{exc.args[0]!r} is required"
    except (TypeError, ValueError) as exc:
        reason = str(exc)
    raise InvalidInput(f"input field {name!r} is malformed: {reason}")


def json_words(value) -> str:
    """How a reason names a refused value: an array or an object by its
    JSON type, a scalar as JSON writes it.  It never raises."""
    if isinstance(value, list):
        return f"an array of {len(value)}"
    if isinstance(value, dict):
        return "an object"
    if value is None or isinstance(value, (str, int, float)):
        try:
            return json.dumps(value)
        except ValueError:  # more digits than ``str`` writes
            return "an integer too long to quote"
    return f"a value of type {type(value).__name__}"  # no JSON value


def input_int(value) -> int:
    """An integer of an input body, not a boolean."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"expected an integer, got {json_words(value)}")
    return value


def input_list(value) -> list:
    """An array of an input body."""
    if not isinstance(value, list):
        raise TypeError(f"expected an array, got {json_words(value)}")
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
    """An object of an input body."""
    if not isinstance(value, dict):
        raise TypeError(f"expected an object, got {json_words(value)}")
    return value


def input_float(value) -> float:
    """A real number of an input body: a JSON number, not a boolean."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, got {json_words(value)}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError("the integer is too large for a float") from None


def check_flow_scalars(s0: float, t_max: float, step: float) -> None:
    """Refuse, as InvalidInput, a negative ``s0``, a ``t_max`` or ``step``
    that is not finite and positive, and a ``t_max / step`` past the
    floats, naming each value as :func:`json_words` does.  The ``flow``
    reader checks with it before numpy loads, and the integrator for its
    library callers."""
    if s0 < 0:
        raise InvalidInput(f"s0 must be nonnegative, got {json_words(s0)}")
    for name, value in (("t_max", t_max), ("step", step)):
        if not (math.isfinite(value) and value > 0):
            raise InvalidInput(f"{name} must be finite and positive, "
                               f"got {json_words(value)}")
    if not math.isfinite(t_max / step):
        raise InvalidInput("t_max / step overflows")
