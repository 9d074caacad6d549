"""Exception types shared across the toolkit; ``checked``, the one rule by
which every file reader (config, scene, dataset, report) reads parsed JSON:
exact scalar types, and at every level of a file an object with exactly its
dataclass's fields, each read by the field's type hint; ``written``, its
inverse, by which every file is written; and ``check_ranges``, which holds
fields to the ``Range`` declared beside each."""

import dataclasses
import functools
import math
from types import MappingProxyType
from typing import Callable, Mapping, NamedTuple, get_args, get_origin, get_type_hints


class NavkitError(Exception):
    """Base class for all toolkit errors."""


class AmbiguousView(NavkitError):
    """No dominantly visible box side from the given viewpoint."""


class OutOfRange(NavkitError):
    """A value left its declared range (a codec step too long to encode)."""


class GenerationFailed(NavkitError):
    """Scene generation exhausted its rejection-sampling budget."""


class InvalidCommand(NavkitError):
    """Velocity command does not match the robot kinematics or exceeds limits."""


class NoPathFound(NavkitError):
    """Planner found no collision-free path within its budget."""


class InvalidEndpoint(NavkitError):
    """Planner start or goal pose is in collision."""


class OffPath(NavkitError):
    """Query pose projects too far from the reference path."""


class EmptyTrajectory(NavkitError):
    """Tracking controller received an empty trajectory."""


class SamplingExhausted(NavkitError):
    """Task sampling exhausted its rejection budget."""


class SchemaMismatch(NavkitError):
    """Serialized record does not match the expected schema or version."""


class IoFailure(NavkitError):
    """Filesystem error raised by a batch command."""


@functools.cache
def field_types(cls) -> dict:
    """``{field name: resolved type hint}`` of a dataclass, in field order."""
    hints = get_type_hints(cls)
    return {f.name: hints[f.name] for f in dataclasses.fields(cls)}


@dataclasses.dataclass(frozen=True)
class Range:
    """A numeric field's allowed values, declared beside it as
    ``Annotated[float, Range(lo, hi)]``: an end is excluded when its
    ``*_open`` flag is set, and NaN is never in range."""

    lo: float
    hi: float = math.inf
    lo_open: bool = False
    hi_open: bool = False

    def admits(self, v) -> bool:
        return (self.lo < v if self.lo_open else self.lo <= v) and (v < self.hi if self.hi_open else v <= self.hi)

    def __str__(self) -> str:
        if self.hi != math.inf:
            return f"in {'(' if self.lo_open else '['}{self.lo}, {self.hi}{')' if self.hi_open else ']'}"
        if self.lo == 0:
            words = "positive" if self.lo_open else "non-negative"
        else:
            words = f"{'above' if self.lo_open else 'at least'} {self.lo}"
        return f"finite and {words}" if self.hi_open else words


POSITIVE = Range(0, lo_open=True)
FINITE_POSITIVE = Range(0, lo_open=True, hi_open=True)
NON_NEGATIVE = Range(0)
AT_LEAST_1 = Range(1)
UNIT = Range(0, 1)


@functools.cache
def field_ranges(cls) -> dict:
    """``{field name: Range}`` of each field of dataclass ``cls`` that declares one."""
    hints = get_type_hints(cls, include_extras=True)
    return {k: m for k in field_types(cls) for m in getattr(hints[k], "__metadata__", ()) if isinstance(m, Range)}


def check_ranges(obj, where: str) -> None:
    """Refuse (ValueError) the first field of dataclass ``obj`` outside its
    ``Range``, naming it by ``where``, the field name and the value."""
    for name, allowed in field_ranges(type(obj)).items():
        if not allowed.admits(getattr(obj, name)):
            raise ValueError(f"{where} {name} must be {allowed}, got {getattr(obj, name)}")


def _prefix(where: str) -> str:
    return f"{where}: " if where else ""


def require_fields(value, names, where: str) -> None:
    """Refuse ``value`` unless it is a JSON object whose keys are exactly ``names``."""
    if type(value) is not dict:
        raise ValueError(f"{_prefix(where)}expected an object, got {type(value).__name__}")
    if value.keys() != names:
        unknown, missing = sorted(value.keys() - names), sorted(set(names) - value.keys())
        wrong = [f"{what} fields {keys}" for what, keys in (("unknown", unknown), ("missing", missing)) if keys]
        raise ValueError(_prefix(where) + ", ".join(wrong))


class Shape(NamedTuple):
    """The file form of a type that is not stored as an object of its fields
    (a pose stored as ``[x, y, heading]``, say): ``read(value, where)`` for
    ``checked`` and ``write(obj)`` for ``written``, each the other's inverse;
    ``read`` is None for a form that no file is read back as."""

    read: Callable | None
    write: Callable


_NO_SHAPES: Mapping = MappingProxyType({})


@functools.cache
def _file_form(kind) -> tuple:
    """How ``checked`` reads a ``kind`` that is not a scalar: ("object", its
    field types) for a dataclass, ("list" or "dict", the value type) for a
    ``list[X]`` or ``dict[str, X]``, else (None, None). Resolved once per type."""
    if dataclasses.is_dataclass(kind):
        return "object", field_types(kind)
    origin, args = get_origin(kind), get_args(kind)
    if origin is list:
        return "list", args[0]
    if origin is dict:
        return "dict", args[1]
    return None, None


def checked(value, kind, where: str, shapes: Mapping = _NO_SHAPES):
    """Return ``value``, parsed from a file, read as ``kind``.

    A float takes any finite number and an int an integral number; neither
    takes a bool or a string. A bool takes only true or false, a str only a
    string; types are matched exactly, as JSON parsing yields them, which is
    the cheaper test. A dataclass takes an object with exactly its fields, a
    ``list[X]`` a list and a ``dict[str, X]`` an object, each value read in
    turn, except that a type in ``shapes`` is read by its ``Shape``'s
    ``read(value, where)``. Anything else raises ValueError naming ``where``,
    the value's dotted path.
    """
    t = type(value)
    if kind is float and (t is float or t is int):
        value = float(value)
        if math.isfinite(value):
            return value
        raise ValueError(f"{where}: non-finite number {value}")
    if kind is int and (t is int or t is float and value.is_integer()):
        return int(value)
    if t is kind and (kind is bool or kind is str):
        return value
    if kind in (float, int, bool, str):
        raise ValueError(f"{where} must be {kind.__name__}, got {value!r}")
    shape = shapes.get(kind)
    if shape is not None:
        return shape.read(value, where)
    form, spec = _file_form(kind)
    if form == "object":
        if t is not dict or value.keys() != spec.keys():
            require_fields(value, spec.keys(), where)
        fields = {}
        for k, hint in spec.items():
            v = value[k]
            vt = type(v)
            # a value of exactly its scalar type, tested inline: a dataset record holds thousands
            if vt is hint and (vt is int or vt is str or vt is bool or vt is float and math.isfinite(v)):
                fields[k] = v
            else:
                fields[k] = checked(v, hint, f"{where}.{k}" if where else k, shapes)
        try:
            return kind(**fields)
        except ValueError as err:  # a rule of the type itself, such as unique ids
            # a config section's own rules already begin with its name
            message = str(err)
            raise ValueError(message if message.startswith(f"{where} ") else _prefix(where) + message) from err
    if form == "list" and t is list:
        try:
            return [checked(v, spec, where, shapes) for v in value]
        except (ValueError, TypeError):
            pass  # read again with each element's path, formatted only to word the error
        return [checked(v, spec, f"{where}.{i}", shapes) for i, v in enumerate(value)]
    if form == "dict" and t is dict:
        return {k: checked(v, spec, f"{where}[{k!r}]", shapes) for k, v in value.items()}
    if form == "list" or form == "dict":
        form = "a list" if form == "list" else "an object"
        raise ValueError(f"{_prefix(where)}expected {form}, got {t.__name__}")
    raise TypeError(f"{where}: no file form for {kind!r}")


def written(value, shapes: Mapping = _NO_SHAPES):
    """``value``, a dataclass, in the form ``checked`` reads it as, ready for
    ``json.dumps``.

    The form follows the type hints, as ``checked`` reads them: a type in
    ``shapes`` goes through its ``Shape``'s ``write``, a dataclass becomes an
    object of its fields in ``field_types`` order, a ``list[X]`` or
    ``dict[str, X]`` is written value by value, and a scalar is as it is.
    """
    return _writer(type(value), tuple(shapes.items()))(value)


@functools.cache
def _writer(kind, shapes: tuple) -> Callable | None:
    """The function that writes a ``kind`` for ``written``, or None for a kind
    written as it is (a scalar). Built once per type and shape table."""
    shape = dict(shapes).get(kind)
    if shape is not None:
        return shape.write
    form, spec = _file_form(kind)
    if form == "object":
        # one dict display per dataclass, as fast as a hand-written writer: a
        # dataset record holds thousands of steps. Field names are identifiers.
        env = {f"w_{k}": _writer(hint, shapes) for k, hint in spec.items()}
        items = (f"{k!r}: o.{k}" if env[f"w_{k}"] is None else f"{k!r}: w_{k}(o.{k})" for k in spec)
        return eval(f"lambda o: {{{', '.join(items)}}}", env)
    if form == "list":
        write = _writer(spec, shapes)
        return list if write is None else lambda v: [write(x) for x in v]
    if form == "dict":
        write = _writer(spec, shapes)
        return dict if write is None else lambda v: {k: write(x) for k, x in v.items()}
    return None
