"""Command-line frontend: run scripts, replay the built-in figure demos,
and fuzz-verify every construction against the analytic oracles.

    compass run script.compass --points --svg figure.svg --trace trace.json
    compass demo midpoint
    compass fuzz --op all --cases 1000 --seed 42

Exit codes: 0 success; 1 I/O failure, a script that is not UTF-8 included;
2 script or construction error (one-line diagnostic with line:column), or
a render failure (an SVG view box that overflows); 3 fuzz mismatch.
"""

from __future__ import annotations

import argparse
import sys

from . import demos, dsl, fuzz, svg, tracedoc
from .errors import CompassError


def _diag(message: str) -> None:
    print(f"compass: {message}", file=sys.stderr)


def _points_text(result: dsl.ScriptResult) -> str:
    xs, ys = result.trace.resolved.xs, result.trace.resolved.ys
    return "".join(f"{name} {xs[node]:.17g} {ys[node]:.17g}\n"
                   for name, node in result.named_points)


def _svg_text(result: dsl.ScriptResult) -> str:
    names = {node: name
             for node, name in enumerate(result.seed_names)}
    names.update({node: name for name, node in result.named_points})
    return svg.render_trace(result.trace, names)


def _trace_text(result: dsl.ScriptResult) -> str:
    doc = tracedoc.document_from_trace(
        result.trace, result.seed_names,
        tuple(name for name, _ in result.named_points))
    return tracedoc.dumps(doc)


def _write(path: str, content: str) -> int:
    if path == "-":
        sys.stdout.write(content)
        return 0
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(content)
    except OSError as err:
        _diag(f"cannot write {path}: {err}")
        return 1
    return 0


_RENDERERS = {"points": _points_text, "svg": _svg_text, "trace": _trace_text}


def _run_script(source: str, args, always_points: bool = False) -> int:
    try:
        result = dsl.run_source(source)
    except dsl.ScriptError as err:
        _diag(str(err))
        return 2
    except CompassError as err:
        _diag(f"construction failed: {type(err).__name__}: {err}")
        return 2
    requests = [("points", "-")] if args.points or always_points else []
    flags = (("svg", args.svg), ("trace", args.trace))
    requests += [(target, path) for target, path in flags if path]
    requests += [(request.target, request.path) for request in result.emits]
    for target, path in requests:
        try:
            content = _RENDERERS[target](result)
        except CompassError as err:
            _diag(f"cannot render {target}: {type(err).__name__}: {err}")
            return 2
        if _write(path, content):
            return 1
    return 0


def cmd_run(args) -> int:
    try:
        with open(args.script, "r", encoding="utf-8") as handle:
            source = handle.read()
    except (OSError, UnicodeDecodeError) as err:
        _diag(f"cannot read {args.script}: {err}")
        return 1
    return _run_script(source, args)


def cmd_demo(args) -> int:
    source = demos.DEMOS.get(args.name)
    if source is None:
        _diag(f"unknown demo {args.name!r}; available: "
              + ", ".join(sorted(demos.DEMOS)))
        return 2
    return _run_script(source, args, always_points=True)


def cmd_fuzz(args) -> int:
    if args.cases < 0:
        _diag("--cases must be nonnegative")
        return 2
    if args.op == "all":
        ops = list(fuzz.OPS)
    elif args.op in fuzz.OPS:
        ops = [args.op]
    else:
        _diag(f"unknown construction {args.op!r}; available: all, "
              + ", ".join(fuzz.OPS))
        return 2
    reports = [fuzz.run_op(name, args.cases, args.seed) for name in ops]
    sys.stdout.write(fuzz.format_reports(reports, args.cases, args.seed))
    return 3 if any(r.failures for r in reports) else 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="compass",
        description="compass-only construction engine")
    sub = parser.add_subparsers(dest="command", required=True)

    def io_flags(p):
        p.add_argument("--svg", metavar="PATH", help="write an SVG figure")
        p.add_argument("--trace", metavar="PATH", help="write a JSON trace")
        p.add_argument("--points", action="store_true",
                       help="print NAME x y per constructed point")

    run_p = sub.add_parser("run", help="run a construction script")
    run_p.add_argument("script", help="path to a .compass script")
    io_flags(run_p)
    run_p.set_defaults(func=cmd_run)

    demo_p = sub.add_parser("demo", help="run a built-in figure demo")
    demo_p.add_argument("name", help="one of: " + ", ".join(sorted(demos.DEMOS)))
    io_flags(demo_p)
    demo_p.set_defaults(func=cmd_demo)

    fuzz_p = sub.add_parser("fuzz", help="verify constructions against oracles")
    fuzz_p.add_argument("--cases", type=int, default=1000, metavar="N")
    fuzz_p.add_argument("--seed", type=int, default=42, metavar="S")
    fuzz_p.add_argument("--op", default="all", metavar="NAME",
                        help="construction name or 'all'")
    fuzz_p.set_defaults(func=cmd_fuzz)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
