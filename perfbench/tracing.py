"""Span tracing for the traced benchmark run.

The tracer never touches the engine's source. It replaces, for the length of
a ``with tracer.installed():`` block, every name through which engine code
reaches a layer boundary, and restores the originals on exit:

* ``program.circle_circle_intersect`` and ``program.circle_from`` (imported by
  name into ``program``; every ``Builder`` and ``execute`` call resolves them
  there) are *leaf* timers: geometry calls number in the tens of thousands
  per item, so they are aggregated as count and total per parent span
  instead of being recorded one span each;
* ``execute``, ``rebase`` and ``purity_audit`` are replaced in every module
  that imported them by name;
* ``Builder.inline`` and ``Builder.rollback`` are patched on the class;
* every ``constructions.build_*`` is patched on the module, so the module's
  internal calls are caught as well;
* ``field_ops.{add,mul,neg,conj}``, the ``dsl``/``tracedoc``/``svg`` entry
  points, ``fuzz.run_op`` and the oracle names ``fuzz`` imported.

Each span records name, start, end and parent. Self time is a span's
duration minus the time covered by its children (spans and leaf timers).
Outside an item (no root span open) every wrapper calls straight through,
so the benchmark's own checks are never billed to a layer.
"""

from __future__ import annotations

import contextlib
import json
import math
from time import perf_counter

from compass import constructions, dsl, field_ops, fuzz, program, svg, tracedoc

CONSTRUCTIONS = ("apex", "extend", "nth_point", "midpoint", "perp_foot",
                 "invert_exterior", "invert_general", "line_line",
                 "line_circle_off_center", "line_circle_center_on_line")
FIELD_OPS = ("add", "mul", "neg", "conj")
ORACLE_NAMES = tuple(n for n in vars(fuzz) if n.startswith("oracle_"))

# Full span records are kept for the first items only; aggregates cover all.
SPAN_RECORD_LIMIT = 100_000

# stats slots: calls, inclusive seconds, self seconds, units
_CALLS, _TOTAL, _SELF, _UNITS = range(4)


@contextlib.contextmanager
def patched(replacements):
    """Set ``(owner, attr, value)`` triples; restore the originals on exit."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in replacements]
    try:
        for owner, attr, value in replacements:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


class Tracer:
    """In-memory span recorder with per-layer aggregates."""

    def __init__(self):
        # frame: [name, start, child seconds, span index or -1, leaf aggregates]
        self.stack: list[list] = []
        self.stats: dict[str, list[float]] = {}
        self.spans: list[tuple] = []
        self.items = 0
        self.worst_self_excess = -math.inf  # max over items of (sum of self) - wall
        self.field_depth = 0
        self.field_seconds = 0.0      # outermost field_ops spans
        self.field_exec_seconds = 0.0  # execute spans inside field_ops spans
        self.witnesses: list = []     # field_ops results of the current item
        self._self_sum = 0.0

    # --- items ---------------------------------------------------------------

    def begin_item(self) -> None:
        self.witnesses = []
        self._self_sum = 0.0
        index = self._record("item", 0.0, 0.0, -1, None)
        self.stack.append(["item", perf_counter(), 0.0, index, None])

    def end_item(self) -> float:
        end = perf_counter()
        frame = self.stack.pop()
        wall = end - frame[1]
        self._finish_record(frame, end)
        self.items += 1
        self.worst_self_excess = max(self.worst_self_excess, self._self_sum - wall)
        return wall

    # --- span bookkeeping -------------------------------------------------------

    def _record(self, name, start, end, parent, leaves):
        if len(self.spans) >= SPAN_RECORD_LIMIT:
            return -1
        self.spans.append([name, start, end, parent, leaves])
        return len(self.spans) - 1

    def _finish_record(self, frame, end):
        index = frame[3]
        if index >= 0:
            record = self.spans[index]
            record[1], record[2], record[4] = frame[1], end, frame[4]

    def _stat(self, name: str) -> list[float]:
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = [0, 0.0, 0.0, 0]
        return stat

    def span(self, name: str, fn, units=None, before=None):
        """Wrap ``fn`` as a span. ``units(args, result)`` or
        ``before(args)`` (evaluated before the call) adds to the unit count."""
        stack = self.stack
        stat = self._stat(name)

        def wrapper(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            if before is not None:
                stat[_UNITS] += before(args)
            parent = stack[-1]
            frame = [name, 0.0, 0.0, self._record(name, 0.0, 0.0, parent[3], None), None]
            stack.append(frame)
            result = None
            frame[1] = start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                own = duration - frame[2]
                stat[_CALLS] += 1
                stat[_TOTAL] += duration
                stat[_SELF] += own
                self._self_sum += own
                parent[2] += duration
                self._finish_record(frame, end)
                if units is not None and result is not None:
                    stat[_UNITS] += units(args, result)

        return wrapper

    def leaf(self, name: str, fn):
        """Wrap ``fn`` as a leaf timer aggregated into its parent span."""
        stack = self.stack
        stat = self._stat(name)

        def wrapper(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                stat[_CALLS] += 1
                stat[_TOTAL] += duration
                stat[_SELF] += duration
                self._self_sum += duration
                parent = stack[-1]
                parent[2] += duration
                if parent[3] >= 0:
                    leaves = parent[4]
                    if leaves is None:
                        leaves = parent[4] = {}
                    agg = leaves.get(name)
                    if agg is None:
                        leaves[name] = [1, duration]
                    else:
                        agg[0] += 1
                        agg[1] += duration

        return wrapper

    # --- the patch table ----------------------------------------------------------

    def _execute(self, fn):
        inner = self.span("program.execute", fn, before=lambda a: len(a[0].steps))

        def wrapper(*args, **kwargs):
            if self.field_depth == 0 or not self.stack:
                return inner(*args, **kwargs)
            start = perf_counter()
            try:
                return inner(*args, **kwargs)
            finally:
                self.field_exec_seconds += perf_counter() - start

        return wrapper

    def _field(self, name, fn):
        inner = self.span(f"field_ops.{name}", fn)

        def wrapper(*args, **kwargs):
            if not self.stack:
                return fn(*args, **kwargs)
            self.field_depth += 1
            start = perf_counter()
            try:
                result = inner(*args, **kwargs)
                self.witnesses.append(result)
                return result
            finally:
                self.field_depth -= 1
                if self.field_depth == 0:
                    self.field_seconds += perf_counter() - start

        return wrapper

    def _construction(self, name, fn):
        stat_name = f"constructions.{name}"
        stack = self.stack
        inner = self.span(stat_name, fn)
        stat = self._stat(stat_name)

        def wrapper(builder, *args, **kwargs):
            if not stack:
                return fn(builder, *args, **kwargs)
            before = len(builder)
            try:
                return inner(builder, *args, **kwargs)
            finally:
                stat[_UNITS] += len(builder) - before

        return wrapper

    def _run_op(self, fn):
        spans = {op: self.span(f"fuzz.{op}", fn, before=lambda a: a[1])
                 for op in fuzz.OPS}

        def wrapper(name, *args, **kwargs):
            return spans[name](name, *args, **kwargs)

        return wrapper

    def replacements(self):
        p = program
        execute = self._execute(p.execute)
        rebase = self.span("program.rebase", p.rebase,
                           units=lambda a, r: len(r.steps))
        audit = self.span("program.purity_audit", p.purity_audit)
        out = [
            (p, "circle_circle_intersect",
             self.leaf("geom.intersect", p.circle_circle_intersect)),
            (p, "circle_from", self.leaf("geom.circle_from", p.circle_from)),
            (p, "execute", execute), (fuzz, "execute", execute),
            (field_ops, "execute", execute),
            (p, "rebase", rebase), (field_ops, "rebase", rebase),
            (p, "purity_audit", audit), (tracedoc, "purity_audit", audit),
            (fuzz, "purity_audit", audit),
            (p.Builder, "inline", self.span("program.inline", p.Builder.inline)),
            (p.Builder, "rollback",
             self.span("program.rollback", p.Builder.rollback,
                       before=lambda a: len(a[0]) - a[1][0])),
            (dsl, "tokenize", self.span("dsl.tokenize", dsl.tokenize,
                                        units=lambda a, r: len(r))),
            (dsl, "parse", self.span("dsl.parse", dsl.parse,
                                     units=lambda a, r: len(r))),
            (dsl, "interpret", self.span("dsl.interpret", dsl.interpret)),
            (tracedoc, "document_from_trace",
             self.span("tracedoc.dump", tracedoc.document_from_trace)),
            (tracedoc, "dumps", self.span("tracedoc.dump", tracedoc.dumps,
                                          units=lambda a, r: len(r))),
            (tracedoc, "loads", self.span("tracedoc.load", tracedoc.loads)),
            (tracedoc, "trace_from_document",
             self.span("tracedoc.load", tracedoc.trace_from_document)),
            (svg, "render_trace", self.span("svg.render", svg.render_trace,
                                            units=lambda a, r: len(r))),
            (fuzz, "run_op", self._run_op(fuzz.run_op)),
        ]
        for name in dir(constructions):
            if name.startswith("build_"):
                fn = getattr(constructions, name)
                out.append((constructions, name,
                            self._construction(name[len("build_"):], fn)))
        for name in FIELD_OPS:
            out.append((field_ops, name, self._field(name, getattr(field_ops, name))))
        for name in ORACLE_NAMES:
            out.append((fuzz, name, self.leaf("oracle", getattr(fuzz, name))))
        return out

    @contextlib.contextmanager
    def installed(self):
        with patched(self.replacements()):
            yield self

    # --- output ----------------------------------------------------------------

    def calls(self, name: str) -> int:
        return self.stats.get(name, (0, 0.0, 0.0, 0))[_CALLS]

    def total(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0, 0.0, 0))[_TOTAL]

    def self_time(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0, 0.0, 0))[_SELF]

    def units(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0, 0.0, 0))[_UNITS]

    def write_spans(self, path, meta: dict) -> None:
        """Write the recorded spans as JSON: name, start and end in
        microseconds from the first span, parent index, leaf aggregates."""
        origin = self.spans[0][1] if self.spans else 0.0
        rows = [[name, round((start - origin) * 1e6, 3), round((end - origin) * 1e6, 3),
                 parent, {k: [v[0], round(v[1] * 1e6, 3)] for k, v in (leaves or {}).items()}]
                for name, start, end, parent, leaves in self.spans]
        doc = dict(meta, truncated=len(self.spans) >= SPAN_RECORD_LIMIT,
                   columns=["name", "start_us", "end_us", "parent", "leaf_count_us"],
                   spans=rows)
        path.write_text(json.dumps(doc, separators=(",", ":")) + "\n")


class Finished:
    """Counts over the constructions traced items finished, and over the
    witnesses every traced ``field_ops`` call returned."""

    def __init__(self):
        self.steps = self.picks = 0
        self.walked = self.live = 0  # steps of the programs walked for liveness
        self.witnesses = self.witness_steps = self.witness_live = 0

    def add(self, workload, raw, outcome, tracer: Tracer) -> None:
        self.steps += outcome.steps
        self.picks += outcome.picks
        for prog in workload.finished(raw):
            live = set()
            for out in prog.outputs:
                live |= program.ancestors(prog, out)
            self.walked += len(prog.steps)
            self.live += len(live)
        for value in tracer.witnesses:
            self.witnesses += 1
            self.witness_steps += len(value.program.steps)
            self.witness_live += len(program.ancestors(value.program, value.primary_output))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(tr: Tracer, fin: Finished, overhead: float,
              max_err: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, each per traced item unless its name says otherwise.
    ``overhead`` is traced over untraced items_per_s on the same items;
    ``max_err`` the worst oracle error of the traced items."""
    n = max(tr.items, 1)
    m: dict[str, tuple[float, str]] = {}

    def calls(name, stat):
        m[name] = (tr.calls(stat) / n, "count")

    def self_ms(name, stat):
        m[name] = (tr.self_time(stat) * 1e3 / n, "ms")

    def total_ms(name, stat):
        m[name] = (tr.total(stat) * 1e3 / n, "ms")

    for short, stat in (("intersect", "geom.intersect"), ("circle_from", "geom.circle_from")):
        calls(f"geom.{short}.calls", stat)
        self_ms(f"geom.{short}.self_ms", stat)
    m["geom.useful_pick_ratio"] = (_ratio(fin.picks, tr.calls("geom.intersect")), "ratio")

    calls("program.execute.calls", "program.execute")
    m["program.execute.steps"] = (tr.units("program.execute") / n, "count")
    self_ms("program.execute.self_ms", "program.execute")
    calls("program.inline.calls", "program.inline")
    self_ms("program.inline.self_ms", "program.inline")
    calls("program.rebase.calls", "program.rebase")
    m["program.rebase.steps_out"] = (tr.units("program.rebase") / n, "count")
    self_ms("program.rebase.self_ms", "program.rebase")
    self_ms("program.purity_audit.self_ms", "program.purity_audit")
    m["program.rollback.steps"] = (tr.units("program.rollback") / n, "count")
    m["program.final_steps"] = (fin.steps / n, "count")
    m["program.live_step_ratio"] = (_ratio(fin.live, fin.walked), "ratio")

    for name in CONSTRUCTIONS:
        stat = f"constructions.{name}"
        made = tr.calls(stat)
        calls(f"{stat}.calls", stat)
        m[f"{stat}.steps_per_call"] = (_ratio(tr.units(stat), made), "count")
        m[f"{stat}.ms_per_call"] = (_ratio(tr.total(stat) * 1e3, made), "ms")

    for name in FIELD_OPS:
        stat = f"field_ops.{name}"
        calls(f"{stat}.calls", stat)
        m[f"{stat}.ms_per_call"] = (_ratio(tr.total(stat) * 1e3, tr.calls(stat)), "ms")
    m["field_ops.witness_steps"] = (_ratio(fin.witness_steps, fin.witnesses), "count")
    m["field_ops.witness_live_ratio"] = (_ratio(fin.witness_live, fin.witness_steps), "ratio")
    m["field_ops.reexecute_share"] = (_ratio(tr.field_exec_seconds, tr.field_seconds), "ratio")

    total_ms("dsl.tokenize.ms", "dsl.tokenize")
    m["dsl.tokens"] = (tr.units("dsl.tokenize") / n, "count")
    total_ms("dsl.parse.ms", "dsl.parse")
    m["dsl.statements"] = (tr.units("dsl.parse") / n, "count")
    self_ms("dsl.interpret.self_ms", "dsl.interpret")
    total_ms("tracedoc.dump.ms", "tracedoc.dump")
    total_ms("tracedoc.load.ms", "tracedoc.load")
    m["tracedoc.bytes"] = (tr.units("tracedoc.dump") / n, "bytes")
    total_ms("svg.render.ms", "svg.render")
    m["svg.bytes"] = (tr.units("svg.render") / n, "bytes")

    for op in fuzz.OPS:
        stat = f"fuzz.{op}"
        m[f"{stat}.ms_per_case"] = (_ratio(tr.total(stat) * 1e3, tr.units(stat)), "ms")
    self_ms("oracle.self_ms", "oracle")
    m["oracle.max_err"] = (max_err, "1")
    m["trace.overhead"] = (overhead, "ratio")
    return m
