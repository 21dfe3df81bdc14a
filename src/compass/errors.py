"""Typed failure modes shared across the engine.

Every geometric failure is an error value the caller can classify; nothing
in the library aborts the process.
"""


class CompassError(Exception):
    """Base class for all engine errors."""


class NonFiniteInput(CompassError):
    """A coordinate was NaN or infinite."""


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


class NotOnCircle(CompassError):
    """Antipode of a point that does not lie on the circle."""
