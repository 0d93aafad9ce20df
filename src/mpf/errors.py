"""The two mpf exceptions, InputError (exit 3) and FilterDisagreementError (exit 4), and the input schema."""

import reprlib


class MpfError(Exception):
    """Base class for all mpf-specific errors."""


class InputError(MpfError, ValueError):
    """Bad input: a wrong JSON type or value, a reducible modulus, a non-subgroup N, or work past a bound."""


class FilterDisagreementError(MpfError):
    """Two verdict routes disagreed on one input.

    This would indicate a bug in one of the routes, never a property of
    the input itself; the offending function is attached when there is one.
    """

    def __init__(self, message, function=None):
        super().__init__(message)
        self.function = function


HEX = "hex string"  # a JSON string that int(s, 16) reads, decoded to that int
# Each kind's keys and their JSON types: int (never a bool or a float), str, HEX, dict (an object that
# its own loader decodes) or [t] (a list of t, read as a tuple).  Absent and null both mean absent,
# which only OPTIONAL keys may be.  Unknown keys are ignored.
SCHEMAS = {
    "field": {"n": int, "modulus": HEX},
    "truth_table": {"mode": str, "n": int, "bits": HEX, "field": dict},
    "function": {"mode": str, "n": int, "field": dict, "table": [HEX]},
    "group": {"law": str, "n": int, "field": dict},
    "rds_input": {"group": dict, "elements": [[HEX]], "forbidden": [[HEX]]},
}
OPTIONAL = ("field", "forbidden")
_NAMES = {int: "JSON integer", str: "JSON string", HEX: "hex string", dict: "JSON object", list: "JSON list"}


def decode(kind: str, obj, jtype=None):
    """obj checked against SCHEMAS[kind]: hex strings read as ints, an object's values listed in key order.

    An InputError names the bad value's path and its JSON type; inner calls pass that path as kind, with jtype.
    """
    jtype = SCHEMAS[kind] if jtype is None else jtype
    if type(obj) is jtype:
        return obj
    try:
        if jtype is HEX:
            return int(obj, 16)
        if jtype == [HEX] and type(obj) is list:  # the whole list in one pass; the loop below names a bad item
            return tuple([int(v, 16) for v in obj])
    except (TypeError, ValueError):
        pass
    if isinstance(jtype, dict) and type(obj) is dict:
        if missing := next((k for k in jtype if obj.get(k) is None and k not in OPTIONAL), None):
            raise InputError(f"{kind}: missing key {missing!r} (a {_name(jtype[missing])})")
        return [None if obj.get(k) is None else decode(f"{kind}.{k}", obj[k], t) for k, t in jtype.items()]
    if isinstance(jtype, list) and type(obj) is list:
        return tuple(decode(f"{kind}[{i}]", v, jtype[0]) for i, v in enumerate(obj))
    raise InputError(f"{kind} must be a {_name(jtype)}, got {reprlib.repr(obj)[:40]}")


def _name(jtype) -> str:
    return _NAMES[type(jtype) if isinstance(jtype, (dict, list)) else jtype]
