"""A state-machine test of ``Builder``, the engine's one trusted path.

``finish`` and ``witness`` hand a builder's columns to ``Program._grown`` and
``program._built``, which skip the constructors' checks. This machine grows
one builder by every public way to grow one (``circle``, ``pick``, ``both``,
``meet``, ``pick_other``, ``inline``, ``mark`` and ``rollback``), with node
arguments that are sometimes out of range or of the wrong kind, redraws a
circle through a pick on it, which must be that circle and append nothing,
reflects a point twice through one center, which must give that point and
append no pick for it, and checks after each step that:

- ``finish``'s program and trace pass the public ``Program`` and ``Trace``
  constructors, so the trusted path builds only what they accept;
- ``execute`` of that program on the builder's seeds gives its columns, bit
  for bit;
- the hash-cons table equals the one rebuilt from the rows;
- ``program._drawn``, the rules of steps already drawn, finds no node for
  any row the builder holds;
- where the builder holds a last cut (``Builder._cut_at``), its pair are
  circle nodes of the builder and its points ``geom.cut`` of their columns,
  also on the builders a witness check resumes and grows;
- a failing call appends nothing (a failing ``inline`` keeps the steps it
  completed, and changes none before them), and ``rollback`` restores the
  columns and table of its mark;
- the witness of each new pair-based point replays to itself, and a builder
  resumed from it goes on as one that grew it.

Once per run it also checks every pair-based point's witness.
"""

from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from compass.constructions import (
    apex_program,
    extend_program,
    midpoint_program,
    nth_point_program,
)
from compass.errors import CompassError
from compass.geom import Point, cut
from compass.program import (
    OP_CIRCLE,
    OP_LEFT,
    OP_RIGHT,
    Builder,
    Program,
    Selector,
    Trace,
    _drawn,
    execute,
)

# seeds on a coarse grid, so that coincident points, touching and coincident
# circles and circles that miss each other all come up
COORDINATES = st.integers(-4, 4).map(lambda n: n / 2)
SEEDS = st.lists(st.builds(Point, COORDINATES, COORDINATES), min_size=2, max_size=4)
GUESTS = [apex_program(Selector.LEFT), apex_program(Selector.RIGHT), extend_program(),
          midpoint_program(), nth_point_program(2), nth_point_program(3)]
INDEX = st.integers(0, 2 ** 16)  # drawn, then read modulo what there is to choose from


def bits(column):
    """The column as text: ``repr`` writes each float exactly, -0.0 apart."""
    return repr(tuple(column))


def columns(b, end=None):
    """A builder's six columns, up to step ``end``, as ``bits``."""
    return tuple(bits(column[:end]) for column in (b.xs, b.ys, b.rs, b.ops, b.first, b.second))


def trace_columns(trace):
    p, r = trace.program, trace.resolved
    return tuple(map(bits, (r.xs, r.ys, r.rs, p.ops, p.first, p.second)))


def check_last_cut(b):
    """Where ``b`` holds a last cut, the one ``_cut_at`` reads again instead
    of cutting that pair, its pair are circle nodes of ``b``
    and its points ``geom.cut`` of their columns as they are now."""
    c1, c2, got = b._last
    if got is None:
        assert (c1, c2) == (-1, -1)
        return
    xs, ys, rs = b.xs, b.ys, b.rs
    assert 0 <= c1 < len(b) and 0 <= c2 < len(b), (c1, c2)
    assert rs[c1] is not None and rs[c2] is not None, (c1, c2)
    assert bits(got) == bits(cut(xs[c1], ys[c1], rs[c1], xs[c2], ys[c2], rs[c2])), (c1, c2)


def rebuilt_table(ops, first, second, seed_count):
    """Each non-seed row keyed on its first step, as ``Builder.resume``
    keys it; a hash-consed builder holds no row twice."""
    table = {}
    for i, row in enumerate(zip(ops, first, second)):
        if i >= seed_count:
            table.setdefault(row, i)
    return table


class BuilderMachine(RuleBasedStateMachine):
    @initialize(seeds=SEEDS)
    def start(self, seeds):
        self.seeds = tuple(seeds)
        self.b = Builder(self.seeds)
        self.marks = []
        self.checked = len(self.b)  # nodes below this have had their witness checked

    # --- drawing arguments ---------------------------------------------

    def nodes(self, circle):
        rs = self.b.rs
        return [i for i, r in enumerate(rs) if (r is not None) is circle]

    def draw_node(self, data, circle):
        """A node of the kind asked for, or one time in eight any id from -1
        to the builder's length."""
        k, kinds = data.draw(INDEX), self.nodes(circle)
        if kinds and k % 8:
            return kinds[k // 8 % len(kinds)]
        return k // 8 % (len(self.b) + 2) - 1

    def state(self):
        return columns(self.b), dict(self.b.table)

    def call(self, method, *args):
        """The call's result, or None where it raised a CompassError, which
        must leave the builder as it was."""
        before = self.state()
        try:
            return method(*args)
        except CompassError:
            assert self.state() == before, method.__name__
            return None

    # --- the rules -----------------------------------------------------

    @rule(data=st.data())
    def circle(self, data):
        self.call(self.b.circle, self.draw_node(data, False), self.draw_node(data, False))

    @rule(data=st.data(), which=st.integers(0, 1))
    def circle_through_a_pick_on_it(self, data, which):
        """The circle about one of a pick's circles' center through the pick
        is that circle node, and the call appends nothing."""
        b = self.b
        picks = [n for n in self.nodes(False) if n >= b.seed_count]
        if not picks:
            return
        node = picks[data.draw(INDEX) % len(picks)]
        circle = (b.first[node], b.second[node])[which]
        before = self.state()
        assert b.circle(b.first[circle], node) == circle
        assert self.state() == before

    @rule(data=st.data(), last=st.sampled_from(["inline", "pick", "both", "meet"]))
    def reflect_twice(self, data, last):
        """``extend``'s rows on (z, y), then on (their output x, y), by
        ``inline`` or by hand with ``last`` for their last pick. Where the
        first run drew its circles C(y; z) and C(z; y) and the second C(x;
        y), each by its own row, the second run gives z and draws no pick
        of circle(u, v) with K = C(y; z) for it."""
        b = self.b
        points = self.nodes(False)
        z, y = (points[data.draw(INDEX) % len(points)] for _ in range(2))
        run = extend_inline if last == "inline" else extend_by_hand
        try:
            x = run(b, z, y, last)
        except CompassError:  # z and y at one point: the invariants check what is kept
            return
        n = len(b)
        out = run(b, x, y, last)
        table = b.table
        k = table.get((OP_CIRCLE, y, z))
        if None in (k, table.get((OP_CIRCLE, z, y)), table.get((OP_CIRCLE, x, y))):
            return  # a circle the circle rule took for another: other rows
        around = table[OP_CIRCLE, x, y]
        c = table[OP_CIRCLE, table[OP_LEFT, around, k], table[OP_RIGHT, around, k]]
        assert out == z
        assert (OP_LEFT, c, k) not in zip(b.ops[n:], b.first[n:], b.second[n:])

    @rule(data=st.data(), which=st.sampled_from([Selector.LEFT, Selector.RIGHT, "left"]))
    def pick(self, data, which):
        self.call(self.b.pick, self.draw_node(data, True), self.draw_node(data, True), which)

    @rule(data=st.data(), method=st.sampled_from(["both", "meet"]))
    def both_or_meet(self, data, method):
        got = self.call(getattr(self.b, method), self.draw_node(data, True),
                        self.draw_node(data, True))
        if got is not None:
            assert all(self.b.rs[node] is None for node in got)

    @rule(data=st.data())
    def pick_other(self, data):
        c1, c2 = self.draw_node(data, True), self.draw_node(data, True)
        avoid = self.draw_node(data, False)
        got = self.call(self.b.pick_other, c1, c2, avoid)
        if got is not None:
            assert got != avoid and self.b.rs[got] is None

    @rule(data=st.data(), as_iterator=st.booleans())
    def inline(self, data, as_iterator):
        guests = list(GUESTS)
        pair_based = [n for n in self.nodes(False) if self.b.pair_based(n)]
        if pair_based:  # a witness of this builder's own, inlined back onto other nodes
            guests.append(self.b.witness(pair_based[data.draw(INDEX) % len(pair_based)]).program)
        guest = guests[data.draw(INDEX) % len(guests)]
        count = guest.seed_count - (data.draw(INDEX) % 8 == 0)  # a short map now and then
        seed_map = [self.draw_node(data, False) for _ in range(count)]
        b, before = self.b, self.state()
        n = len(b)
        try:
            outputs = b.inline(guest, iter(seed_map) if as_iterator else seed_map)
        except CompassError:
            # it keeps the steps it completed, and changes none before them
            assert columns(b, n) == before[0], "inline"
            if count != guest.seed_count or not all(
                    0 <= node < n and b.rs[node] is None for node in seed_map):
                assert self.state() == before  # refused before any step
            return
        assert len(outputs) == len(guest.outputs)
        assert all(self.b.rs[node] is None for node in outputs)

    @rule()
    def mark(self):
        self.marks.append((self.b.mark(), self.state()))

    @rule()
    def rollback(self):
        if not self.marks:
            return
        mark, state = self.marks.pop()
        self.b.rollback(mark)
        assert self.state() == state
        self.checked = min(self.checked, len(self.b))

    # --- what holds after every step -------------------------------------

    def finished(self):
        return self.b.finish(self.nodes(False))

    @invariant()
    def finish_passes_the_public_constructors(self):
        program, trace = self.finished()
        again = Program(program.seed_count, program.ops, program.first, program.second,
                        program.outputs)
        assert again == program
        assert Trace(again, trace.resolved) == trace

    @invariant()
    def execute_gives_the_builder_columns(self):
        program, _ = self.finished()
        assert trace_columns(execute(program, self.seeds)) == columns(self.b)

    @invariant()
    def table_is_the_rows(self):
        b = self.b
        assert b.table == rebuilt_table(b.ops, b.first, b.second, b.seed_count)
        assert len(b.table) == len(b) - b.seed_count  # no row twice

    @invariant()
    def no_row_is_one_already_drawn(self):
        """``_drawn`` returns None for every non-seed row. ``_step``, which
        every way to grow a builder goes through (``circle``, every pick
        method and each row of ``inline``), asks it on a table miss and
        appends the row only where it finds nothing; its rules
        read only rows earlier than the one asked about, and the columns are
        append-only between rollbacks, so what it found for a row then it
        finds now. So this checks every rule of ``_drawn`` across every
        entry point."""
        b = self.b
        ops, first, second = b.ops, b.first, b.second
        for i in range(b.seed_count, len(b)):
            assert _drawn(ops, first, second, ops[i], first[i], second[i]) is None, i

    @invariant()
    def last_cut_is_a_cut_of_its_circles(self):
        check_last_cut(self.b)

    @invariant()
    def new_witnesses_replay_and_resume(self):
        for node in range(self.checked, len(self.b)):
            self.check_witness(node)
        self.checked = len(self.b)

    def check_witness(self, node):
        b = self.b
        if b.rs[node] is not None or not b.pair_based(node):
            return
        w = b.witness(node)
        assert w.output_points() == (b.point(node),)
        assert trace_columns(execute(w.program, w.seed_values)) == trace_columns(w)
        resumed = Builder.resume(w)
        p = w.program
        assert resumed.table == rebuilt_table(p.ops, p.first, p.second, p.seed_count)
        assert columns(resumed) == trace_columns(w)
        # it goes on as a builder that grew the same steps: a row it holds
        # is that node, and a new one is appended after them
        grown = Builder(w.seed_values)
        grown.inline(p, (0, 1))
        assert outcome(lambda: go_on(resumed)) == outcome(lambda: go_on(grown))
        assert columns(resumed) == columns(grown) and resumed.table == grown.table
        check_last_cut(resumed)
        check_last_cut(grown)

    def teardown(self):
        for node in range(len(self.b)):
            self.check_witness(node)


def extend_inline(b, x, y, _):
    return b.inline(extend_program(), (x, y))[0]


def extend_by_hand(b, x, y, last):
    """``extend_program``'s rows on (x, y), drawn by ``circle``, ``both``
    and, for the last pick, ``last``: ``pick``, ``both`` or ``meet``."""
    base = b.circle(y, x)
    u, v = b.both(b.circle(x, y), base)
    wide = b.circle(u, v)
    if last == "pick":
        return b.pick(wide, base, Selector.LEFT)
    return getattr(b, last)(wide, base)[0]


def go_on(b):
    """Draw the two circles of seeds 0 and 1 and meet them, as a value's
    next ring operation does."""
    c1, c2 = b.circle(0, 1), b.circle(1, 0)
    return c1, c2, b.meet(c1, c2)


def outcome(call):
    try:
        return call()
    except CompassError as err:
        return type(err), str(err)


TestBuilderMachine = BuilderMachine.TestCase
TestBuilderMachine.settings = settings(max_examples=100, stateful_step_count=40,
                                       deadline=None)
