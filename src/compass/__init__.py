"""Compass-only geometric constructions: a circle-intersection engine,
replayable construction programs, the classical point constructions built
on them, constructive complex arithmetic, analytic verification oracles,
a construction script language, and a CLI emitting figures and traces."""

from .geom import (
    Coincident,
    NoIntersection,
    Point,
    ResolvedCircle,
    Tangent,
    TwoPoints,
    circle_circle_intersect,
    circle_from,
    distance,
    orientation_sign,
)
from .program import (
    Builder,
    Program,
    Selector,
    Trace,
    execute,
    purity_audit,
    rebase,
    similarity_transport_check,
)

__all__ = [
    "Builder",
    "Coincident",
    "NoIntersection",
    "Point",
    "Program",
    "ResolvedCircle",
    "Selector",
    "Tangent",
    "Trace",
    "TwoPoints",
    "circle_circle_intersect",
    "circle_from",
    "distance",
    "execute",
    "orientation_sign",
    "purity_audit",
    "rebase",
    "similarity_transport_check",
]

__version__ = "0.1.0"
