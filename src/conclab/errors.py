"""Exception hierarchy.

Everything user-facing derives from ConclabError; the CLI maps these to
exit code 2.  Verdicts from the obstruction pipelines are values, never
exceptions.
"""


class ConclabError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(ConclabError):
    """Malformed or out-of-contract input (bad JSON, wrong field, bad
    parameter range).  Messages include a field path where applicable."""


def int_literal(text: str, path: str) -> int:
    """int(text) for a well-formed decimal literal.  A literal past the
    interpreter's int/str digit limit (4300 digits by default) is a
    ValidationError naming path, not a ValueError."""
    try:
        return int(text)
    except ValueError:
        raise ValidationError(
            f"{path}: integer literal of {len(text)} characters exceeds the "
            "interpreter's digit limit") from None


def excerpt(value: object) -> str:
    """repr(value) for an error message; past 80 characters only its first
    40 and the length, so a long input is never echoed whole.

    >>> excerpt("x" * 5000)
    "'xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx... (5000 characters)"
    """
    text = repr(value)
    if len(text) <= 80:
        return text
    size = len(value) if isinstance(value, str) else len(text)
    return f"{text[:40]}... ({size} characters)"


class DegenerateFormError(ConclabError):
    """The Seifert pencil det(t*A - A^T) vanishes identically; signature
    data is undefined for such a matrix."""


class JumpEvaluationError(ConclabError):
    """Signature evaluation was requested exactly at a jump point."""


class NotLSpaceKnotError(ConclabError):
    """The polynomial fails the staircase coefficient test, so torsion
    coefficients do not compute correction terms for it."""


class SizeBoundError(ConclabError):
    """Desk-scale enumeration bound exceeded."""


class CoprimalityError(ConclabError):
    """gcd(|H_1(M_0)|, q) != 1: the chosen companion polynomial is
    incompatible with q and the q-primary part is not what the model
    assumes."""


class FamilyChoiceError(ConclabError):
    """The covering parameter q is not an allowed choice for the given
    polynomial collection (q must avoid the excluded primes)."""


class PrecisionLimitError(ConclabError):
    """Interval refinement reached its bit-precision cap without
    certifying the strict inequality it needed."""


class MissingDataError(ConclabError):
    """An externally supplied correction-term table is required but was
    not given or does not cover the needed elements."""
