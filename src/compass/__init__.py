"""Compass-only geometric constructions: a circle-intersection engine,
replayable construction programs, the classical point constructions built
on them, constructive complex arithmetic, analytic verification oracles,
a construction script language, and a CLI emitting figures and traces.

The package itself exports nothing: every name lives in its module, for
example ``compass.program.Builder``, ``compass.geom.Point`` and
``compass.constructions.build_midpoint``."""
