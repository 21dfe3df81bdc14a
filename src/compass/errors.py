"""Typed failure modes shared across the engine.

Every geometric failure is an error value the caller can classify; nothing
in the library aborts the process.
"""


class CompassError(Exception):
    """Base class for all engine errors."""


class NonFiniteInput(CompassError):
    """A coordinate was NaN or infinite, or not a number."""


class DegenerateCircle(CompassError):
    """A circle's center and through point coincide (radius below threshold)."""


class NoSuchIntersection(CompassError):
    """A pick was requested on circles that do not meet."""


class CoincidentCircles(CompassError):
    """A pick was requested on two copies of the same circle."""


class InvalidNodeId(CompassError):
    """A node reference points outside the host program."""


class MalformedProgram(CompassError):
    """A program violates its structural invariants (seed layout, references)."""


class MalformedTrace(CompassError):
    """A trace record is inconsistent or contains an unknown step kind."""


class NotPositiveInteger(CompassError, ValueError):
    """An integer-scaling factor that is not an int of at least 1."""


class ScaleOverflow(CompassError):
    """An integer-scaling chain would exceed the supported bound."""


class NotExterior(CompassError):
    """Exterior inversion was asked for a point not strictly outside the circle."""


class CenterInversion(CompassError):
    """Inversion is undefined at the circle's center."""


class ParallelLines(CompassError):
    """Line-line intersection of (near-)parallel lines."""


class OnMirrorLine(CompassError):
    """A point to be reflected in a line lies on it: the circles about two
    points of the line through it only touch."""


class BelowResolution(CompassError):
    """A touch, or a point on a circle, that only the absolute band
    ``geom.EPS`` makes: the circles, or the point and the circle, miss by
    more than ``geom.BAND_RESOLUTION`` of the radius. The message names the
    step and that margin."""
