"""Exception types shared across the toolkit, and the value check that every
file reader (config, scene, dataset, report) applies."""

import math


class NavkitError(Exception):
    """Base class for all toolkit errors."""


class AmbiguousView(NavkitError):
    """No dominantly visible box side from the given viewpoint."""


class OutOfRange(NavkitError):
    """A value left its declared range (tilt limit, codec step range, ...)."""


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


def checked(value, kind: type, where: str):
    """Return a value parsed from a file as ``kind``: float, int, bool or str.

    A float takes any finite number and an int an integral number; neither
    takes a bool or a string. A bool takes only true or false, a str only a
    string. Anything else raises ValueError naming ``where``. Types are
    matched exactly, as JSON parsing yields them: dataset files hold
    thousands of numbers per record, and this is the cheaper test.
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
    raise ValueError(f"{where} must be {kind.__name__}, got {value!r}")
