"""Exception types shared across the package.

Every error raised by qsegre derives from :class:`QsegreError` so callers can
catch the whole family at once.  Construction and input-format problems carry a
message naming the offending field.  The size caps and their check live here.
"""

import numbers

MAX_AMPS = 4096  # prod(dims) of a state, a factors file or a Segre ideal
MAX_CHOOSE = 10000  # minors in a row of the Plucker expansion: C(N, min(k, N // 2))
MAX_TERMS = 2**22  # rows a family build lays out (README "Work cap")


class QsegreError(Exception):
    """Base class for all qsegre errors."""


class DimensionMismatch(QsegreError):
    """Amplitude count, vector length, or mode dimension is inconsistent."""


class ZeroVector(QsegreError):
    """An all-zero amplitude vector was supplied where a projective point is required."""


class NonFinite(QsegreError):
    """A NaN or infinite amplitude was supplied to the float backend."""


class IndexOutOfRange(QsegreError):
    """A mode index or multi-index lies outside the declared dimensions."""


class NotProduct(QsegreError):
    """State is not a product state within the requested tolerance."""


class TooLarge(QsegreError):
    """A requested object or enumeration exceeds one of the size caps above."""


class WrongShape(QsegreError):
    """State shape does not match what the operation requires."""


class ShapeError(QsegreError):
    """Matrix shape is invalid for the requested minor computation."""


class MissingVariable(QsegreError):
    """Polynomial evaluation was given an assignment missing a variable."""


class MalformedInput(QsegreError):
    """A JSON document or CLI argument failed validation; message names the field."""


def short_text(value, _depth: int = 0) -> str:
    """``value`` for a message, short at any size (str() refuses ints of over 4300
    digits): an integer by its digits below 2**64 in magnitude, a float by its str,
    a str by its repr, cut to 32 characters and its length past 40, a tuple or
    list by at most its first eight entries, three levels deep, cut to 100
    characters, and its length, and anything else by its type name."""
    if isinstance(value, str):
        return cut_text(repr(value), len(value))
    if isinstance(value, (tuple, list)):
        if _depth == 3:
            return "..."
        head = ", ".join(short_text(v, _depth + 1) for v in value[:8])
        if len(head) > 100:
            head = head[:96] + " ..."
        if len(value) > 8:
            head += f", ... {len(value)} entries"
        return f"({head})" if isinstance(value, tuple) else f"[{head}]"
    if isinstance(value, numbers.Integral) and abs(value) >= 2**64:
        return "over 2**64" if value > 0 else "under -2**64"
    if isinstance(value, (numbers.Integral, float)):
        return str(value)
    return type(value).__name__


def cut_text(text: str, length: int | None = None) -> str:
    """``text`` whole up to 40 characters, else its first 32 and ``length`` (by
    default its own), such as a variable's printed text in a message."""
    if len(text) <= 40:
        return text
    return f"{text[:32]}... ({len(text) if length is None else length} characters)"


def check_cap(what: str, factors, cap: int) -> None:
    """Raise TooLarge when ``what``, the product of the ``factors`` (ints, positive
    but for a lone 0), exceeds ``cap``.  The product stops once past the cap, so no
    count past it is built; the message gives the count only if it is complete."""
    total = 1
    for j, f in enumerate(factors, 1):
        total *= f
        if total > cap:
            count = f" = {short_text(total)}" if j == len(factors) else ""
            raise TooLarge(f"{what}{count} exceeds cap {cap}")
