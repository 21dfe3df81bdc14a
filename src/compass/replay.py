"""A program compiled once to straight-line code, for replays over many draws.

``compile(program)`` writes the source of one function from the program's
int columns alone, each entry formatted with ``%d``: a ``Program`` is valid
by construction, so only digits reach ``exec``. The function takes the seed
x and y columns and returns the trace's columns ``(xs, ys, rs)``, every node
a local: a circle step is ``rN = radius(...)``, and a pick keeps one half of
``g = cut(...)``, which the next pick on the same circle pair reads again:
``program.execute``'s loop, unrolled. It is bound to ``compass.program``'s
globals, without adding a name there, so it calls that module's ``cut``,
``radius`` and ``_no_point`` at call time (a patched ``program.cut`` sees its calls):
``program.execute`` gives the same trace bit for bit, and raises the same
error class and message at the same step, compiled or not.

On CPython 3.11.7 (x86-64) a compile costs about 40 µs per step (32 to
49 µs, over programs of 14 to 82 steps and over the traces of
``fuzz.run_op(op, 20, 42)``), and saves about 0.4 µs per step of each draw
(midpoint's 14 steps execute in 11 µs against 17 µs), so it pays after
some 100 draws: compile only a program replayed over many draws, as
``fuzz`` compiles each canonical program the first time a case draws it
(a compiled program returns at once). ``compass.constructions`` does not
import this module, so importing the engine compiles nothing.
"""

from . import program as _program
from .program import OP_CIRCLE, OP_LEFT, Program


def compile(program: Program):
    """The straight-line function of ``program``, from the seed x and y
    columns to the trace columns, made once and kept in its private
    ``_compiled`` slot, which ``program.execute`` then runs."""
    if program._compiled is not None:
        return program._compiled
    start, ops, first, second = program.seed_count, program.ops, program.first, program.second
    at = list(range(start))  # the step whose locals x%d and y%d hold a step's point
    lines = ["def run(sx, sy):", "    [%s] = sx" % "".join("x%d, " % i for i in at),
             "    [%s] = sy" % "".join("y%d, " % i for i in at)]
    pair = None  # the circle pair that g was cut from
    for i in range(start, len(ops)):
        op, u, v = ops[i], first[i], second[i]
        if op == OP_CIRCLE:
            at.append(at[u])
            lines.append("    r%d = radius(x%d, y%d, x%d, y%d)" % (i, at[u], at[u], at[v], at[v]))
            continue
        at.append(i)
        if pair != (u, v):
            pair = u, v
            lines += ["    g = cut(x%d, y%d, r%d, x%d, y%d, r%d)" % (at[u], at[u], u,
                                                                  at[v], at[v], v),
                      "    if type(g) is str:", "        raise _no_point(g, %d)" % i]
        half = 0 if op == OP_LEFT else 2
        lines.append("    x%d, y%d = g[%d], g[%d]" % (i, i, half, half + 1))
    rs = ("r%d, " % i if op == OP_CIRCLE else "None, " for i, op in enumerate(ops))
    lines.append("    return (%s), (%s), (%s)" % ("".join("x%d, " % k for k in at),
                                                  "".join("y%d, " % k for k in at), "".join(rs)))
    made = {}
    exec("\n".join(lines), vars(_program), made)  # a def binds in ``made``, not the globals
    object.__setattr__(program, "_compiled", made["run"])
    return program._compiled
