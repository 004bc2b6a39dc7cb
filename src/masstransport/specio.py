"""Reading and writing process descriptions as JSON.

Exactness survives the trip through JSON by convention: probabilities,
weights and transition entries must be integers or strings ("3/4",
"0.25"), never JSON floats, and are parsed into Fractions.  Value-like
fields (values, payoffs, coefficients, piece values) accept floats too;
a float there simply marks the process as not exactly enumerable.

Example:

    {"kind": "mixture", "components": [
        {"weight": "1/2", "process": {"kind": "iid_discrete",
                                      "values": [2, -1],
                                      "probs": ["1/2", "1/2"]}},
        {"weight": "1/2", "process": {"kind": "iid_gaussian",
                                      "mean": 0.1, "stddev": 1.0}}]}

Schema errors carry the JSON path of the offending field.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, fields
from fractions import Fraction
from pathlib import Path
from typing import Union

from .errors import InvalidSpec
from .processes import IID_SPECS, SPEC_KINDS, ProcessSpec, _coerce_real, _process_class


def _need(obj: dict, key: str, path: str):
    if key not in obj:
        raise InvalidSpec("missing required field", f"{path}.{key}")
    return obj[key]


def _no_extras(obj: dict, allowed: set[str], path: str) -> None:
    extras = sorted(set(obj) - allowed)
    if extras:
        raise InvalidSpec(f"unknown field(s) {', '.join(extras)}", path)


def _as_list(x, path: str) -> list:
    if not isinstance(x, list):
        raise InvalidSpec(f"expected a list, got {type(x).__name__}", path)
    return x


def _parse_rational(x, path: str, expected: str = "a rational") -> Fraction:
    """Probability-like entries: ints and strings only, floats refused."""
    if isinstance(x, bool):
        raise InvalidSpec(f"expected {expected}, got a boolean", path)
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as e:
            raise InvalidSpec(f"not a rational: {e}", path) from None
    if isinstance(x, float):
        raise InvalidSpec(
            "floats cannot hold exact probabilities; write an integer or a "
            'string like "3/4" or "0.75"',
            path,
        )
    raise InvalidSpec(f"expected {expected}, got {type(x).__name__}", path)


def _parse_real(x, path: str) -> Union[float, Fraction]:
    """Value-like entries: ints and strings are exact, floats are floats;
    each must be finite as a float (JSON's NaN and Infinity are not)."""
    if not isinstance(x, float):
        x = _parse_rational(x, path, expected="a number")
    return _coerce_real(x, path)


def _parse_float(x, path: str) -> float:
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise InvalidSpec(f"expected a number, got {type(x).__name__}", path)
    return float(_coerce_real(x, path))


def _list_of(read):
    """Reader of a JSON list whose entries ``read`` parses."""

    def read_list(x, path: str) -> tuple:
        return tuple(read(v, f"{path}[{i}]") for i, v in enumerate(_as_list(x, path)))

    return read_list


def _piece(x, path: str) -> tuple:
    piece = _as_list(x, path)
    if len(piece) != 2:
        raise InvalidSpec("expected a [breakpoint, value] pair", path)
    return _parse_float(piece[0], f"{path}[0]"), _parse_real(piece[1], f"{path}[1]")


def _component(x, path: str) -> tuple:
    if not isinstance(x, dict):
        raise InvalidSpec(f"expected an object, got {type(x).__name__}", path)
    _no_extras(x, {"weight", "process"}, path)
    weight = _parse_rational(_need(x, "weight", path), f"{path}.weight")
    return weight, spec_from_jsonable(_need(x, "process", path), f"{path}.process")


def _iid_spec(x, path: str) -> ProcessSpec:
    spec = spec_from_jsonable(x, path)
    if not isinstance(spec, IID_SPECS):
        raise InvalidSpec("innovation must be an iid kind", f"{path}.kind")
    return spec


def _real_jsonable(v):
    if isinstance(v, Fraction):
        return str(v)
    return float(v)


def _list_out(write):
    return lambda xs: [write(x) for x in xs]


def _same(x):
    return x


# every field of every kind: (read from JSON at a path, write to JSON)
_FIELDS = {
    "values": (_list_of(_parse_real), _list_out(_real_jsonable)),
    "probs": (_list_of(_parse_rational), _list_out(str)),
    "mean": (_parse_float, _same),
    "stddev": (_parse_float, _same),
    "transitions": (_list_of(_list_of(_parse_rational)), _list_out(_list_out(str))),
    "payoffs": (_list_of(_parse_real), _list_out(_real_jsonable)),
    "coefficients": (_list_of(_parse_real), _list_out(_real_jsonable)),
    "innovation": (_iid_spec, lambda spec: spec_to_jsonable(spec)),
    "pieces": (_list_of(_piece), _list_out(lambda piece: [piece[0], _real_jsonable(piece[1])])),
    "angle": (_parse_float, _same),
    "components": (
        _list_of(_component),
        _list_out(lambda comp: {"weight": str(comp[0]), "process": spec_to_jsonable(comp[1])}),
    ),
}


def spec_from_jsonable(obj, path: str = "$") -> ProcessSpec:
    """Build a process description from parsed JSON, locating any errors."""
    if not isinstance(obj, dict):
        raise InvalidSpec(f"expected an object, got {type(obj).__name__}", path)
    kind = _need(obj, "kind", path)
    if not isinstance(kind, str) or kind not in SPEC_KINDS:
        raise InvalidSpec(
            f"unknown kind {kind!r}; expected one of {', '.join(SPEC_KINDS)}",
            f"{path}.kind",
        )
    cls = SPEC_KINDS[kind]
    _no_extras(obj, {"kind"} | {f.name for f in fields(cls)}, path)
    # a field with a default may be left out
    return cls(
        **{
            f.name: _FIELDS[f.name][0](_need(obj, f.name, path), f"{path}.{f.name}")
            for f in fields(cls)
            if f.name in obj or f.default is MISSING
        }
    )


def spec_to_jsonable(spec: ProcessSpec) -> dict:
    """Inverse of spec_from_jsonable; round trips exactly."""
    _process_class(spec)
    return {
        "kind": spec.kind,
        **{f.name: _FIELDS[f.name][1](getattr(spec, f.name)) for f in fields(spec)},
    }


def format_spec(spec: ProcessSpec) -> str:
    return json.dumps(spec_to_jsonable(spec), indent=2) + "\n"


def parse_spec_text(text: str, source: str = "<string>") -> ProcessSpec:
    try:
        return spec_from_jsonable(json.loads(text))
    except json.JSONDecodeError as e:
        raise InvalidSpec(f"invalid JSON in {source}: {e}") from None
    except RecursionError:  # both readers recurse once per level of nesting
        raise InvalidSpec(f"{source} nests too deeply to read") from None


def parse_spec_file(path: Union[str, Path]) -> ProcessSpec:
    return parse_spec_text(Path(path).read_text(), source=str(path))
