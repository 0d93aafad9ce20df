"""Exception types raised by the mpf library."""

import functools


class MpfError(Exception):
    """Base class for all mpf-specific errors."""


class InputError(MpfError, ValueError):
    """A bad argument or input value: out of range, or of an unknown kind."""


class InputFormatError(InputError):
    """An input JSON value has the wrong type, say a number where a list belongs."""


def json_list(obj: dict, key: str) -> list:
    """obj[key], which must be a JSON list (a string or an object would be read by its characters or keys)."""
    if not isinstance(obj[key], list):
        raise InputFormatError(f"{key} must be a JSON list")
    return obj[key]


def json_loader(load):
    """Report a missing key, or a wrong-typed or malformed value (int() of 1e400 or "0xg"), as InputFormatError."""

    @functools.wraps(load)
    def checked(obj):
        try:
            return load(obj)
        except KeyError as exc:
            raise InputFormatError(f"missing key {exc}") from None
        except (TypeError, AttributeError, OverflowError, ValueError) as exc:
            raise InputFormatError(str(exc)) from None

    return checked


class InvalidModulusError(MpfError):
    """Field modulus is reducible or has the wrong degree."""


class NonPowerOfTwoError(MpfError):
    """Transform input length is not a power of two."""


class ElementRangeError(MpfError):
    """A group element is malformed or has a coordinate out of range."""


class NotASubgroupError(MpfError):
    """The claimed forbidden subgroup is not a subgroup."""


class BruteForceBoundsError(MpfError):
    """A brute-force RDS check exceeds the permitted amount of work."""


class SearchBoundsError(MpfError):
    """Search job exceeds the permitted size bounds (n for exhaustive jobs, 4^n for sampled ones)."""


class FilterDisagreementError(MpfError):
    """The two planarity filters disagreed on a candidate.

    This would indicate a bug in one of the verdict routes, never a
    property of the candidate itself; the offending function is attached.
    """

    def __init__(self, message, function=None):
        super().__init__(message)
        self.function = function
